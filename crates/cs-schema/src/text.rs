//! Identifier text: the one tokenizer and the one trigram shredder.
//!
//! Schema identifiers arrive in many casings: `ORDER_DATETIME`,
//! `productLine`, `customerNumber`, `ORDERDATE`, `order-date`. Every
//! reader of identifiers — the signature encoder, its trigram feature
//! hashing, schema profiles and the lexical matcher — splits them with
//! [`tokenize`] and shreds tokens with [`trigrams`], so all of them see
//! the same tokens. The tokenizer splits on non-alphanumerics, camelCase
//! boundaries, and letter/digit boundaries, and uppercases every token so
//! downstream lookups are case-insensitive.

/// Splits a serialized metadata string into canonical uppercase tokens.
///
/// ```
/// use cs_schema::text::tokenize;
/// assert_eq!(tokenize("ORDER_DATETIME"), vec!["ORDER", "DATETIME"]);
/// assert_eq!(tokenize("productLine"), vec!["PRODUCT", "LINE"]);
/// assert_eq!(tokenize("CLIENT [CID, NAME]"), vec!["CLIENT", "CID", "NAME"]);
/// assert_eq!(tokenize("addr2line10"), vec!["ADDR", "2", "LINE", "10"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev: Option<char> = None;

    let flush = |current: &mut String, tokens: &mut Vec<String>| {
        if !current.is_empty() {
            tokens.push(std::mem::take(current));
        }
    };

    let chars: Vec<char> = text.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if !c.is_alphanumeric() {
            flush(&mut current, &mut tokens);
            prev = None;
            continue;
        }
        if let Some(p) = prev {
            let camel = p.is_lowercase() && c.is_uppercase();
            // `HTMLParser` → HTML | Parser: uppercase run followed by
            // uppercase+lowercase.
            let acronym_end = p.is_uppercase()
                && c.is_uppercase()
                && chars.get(i + 1).is_some_and(|n| n.is_lowercase());
            let digit_boundary = p.is_ascii_digit() != c.is_ascii_digit();
            if camel || acronym_end || digit_boundary {
                flush(&mut current, &mut tokens);
            }
        }
        current.extend(c.to_uppercase());
        prev = Some(c);
    }
    flush(&mut current, &mut tokens);
    tokens
}

/// Boundary-padded character trigrams of a token: `"CAT"` →
/// `["^CA", "CAT", "AT$"]`. Tokens shorter than 3 characters yield their
/// padded form as a single gram.
pub fn trigrams(token: &str) -> Vec<String> {
    let padded: Vec<char> = std::iter::once('^')
        .chain(token.chars())
        .chain(std::iter::once('$'))
        .collect();
    if padded.len() < 3 {
        return vec![padded.iter().collect()];
    }
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case() {
        assert_eq!(tokenize("FIRST_NAME"), vec!["FIRST", "NAME"]);
        assert_eq!(tokenize("order_item_id"), vec!["ORDER", "ITEM", "ID"]);
    }

    #[test]
    fn camel_case() {
        assert_eq!(tokenize("customerNumber"), vec!["CUSTOMER", "NUMBER"]);
        assert_eq!(tokenize("MSRP"), vec!["MSRP"]);
        assert_eq!(tokenize("htmlDescription"), vec!["HTML", "DESCRIPTION"]);
    }

    #[test]
    fn acronym_followed_by_word() {
        assert_eq!(tokenize("HTMLParser"), vec!["HTML", "PARSER"]);
        assert_eq!(tokenize("QRCode"), vec!["QR", "CODE"]);
    }

    #[test]
    fn digits_split() {
        assert_eq!(tokenize("ADDRESS1"), vec!["ADDRESS", "1"]);
        assert_eq!(tokenize("S3BUCKET"), vec!["S", "3", "BUCKET"]);
    }

    #[test]
    fn punctuation_and_brackets() {
        assert_eq!(
            tokenize("CLIENT [CID, NAME, ADDRESS]"),
            vec!["CLIENT", "CID", "NAME", "ADDRESS"]
        );
        assert_eq!(tokenize("a.b-c/d"), vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn joined_words_stay_joined() {
        // No dictionary segmentation: ORDERDATE is one token — this is what
        // creates the paper's ORDERDATE vs ORDER_DATETIME nuance.
        assert_eq!(tokenize("ORDERDATE"), vec!["ORDERDATE"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("[]() ,,").is_empty());
    }

    #[test]
    fn unicode_is_uppercased() {
        assert_eq!(tokenize("straße"), vec!["STRASSE"]);
    }

    #[test]
    fn trigram_extraction() {
        assert_eq!(trigrams("CAT"), vec!["^CA", "CAT", "AT$"]);
        assert_eq!(trigrams("AB"), vec!["^AB", "AB$"]);
        assert_eq!(trigrams("A"), vec!["^A$"]);
        assert_eq!(trigrams(""), vec!["^$"]);
    }
}
