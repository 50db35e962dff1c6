//! The signature encoder `E`: serialized metadata text → 768-d signature.
//!
//! Pipeline per text: tokenize → per-token vectors → stopword-aware
//! weighted mean pooling → L2 normalization (Sentence-BERT's average
//! pooling analog, Section 2.3 of the paper).
//!
//! Per-token vectors combine three deterministic ingredients:
//!
//! 1. **Concept direction** — a seeded Gaussian direction per lexicon
//!    concept, blended with its hypernym chain (decaying) and a domain
//!    direction. Synonyms share it; hyponyms tilt toward their parent;
//!    same-domain words tilt toward each other.
//! 2. **Surface direction** — the token's character-trigram vector, so two
//!    spellings of one concept stay distinguishable (`ORDERDATE` vs
//!    `ORDER_DATETIME` — the paper's false-negative anecdote survives).
//! 3. **Subword segmentation** — out-of-lexicon tokens are greedily
//!    segmented against the lexicon vocabulary (`CUSTOMERNUMBER` →
//!    `CUSTOMER + NUMBER`), mimicking BERT's WordPiece; an
//!    initial-prefix rule maps `CNAME`/`CID`-style abbreviations onto
//!    `NAME`/`ID` with a stronger surface component.

use crate::hash::{seeded_direction, trigram_vector};
use crate::lexicon::{domains, ConceptEntry, Lexicon};
use cs_linalg::vecops::{axpy, normalize};
use cs_linalg::Matrix;
use cs_schema::text::tokenize;
use std::collections::HashMap;
use std::sync::RwLock;

/// Tunable knobs of the encoder. The defaults are what every experiment in
/// the workspace uses; they were chosen once to produce plausible
/// similarity bands (synonyms ≈ 0.5–0.8, hyponyms ≈ 0.3–0.6, unrelated
/// ≈ 0) and are *not* fitted to the evaluation datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Signature dimensionality (the paper uses 768).
    pub dim: usize,
    /// Global seed; changing it re-randomizes all directions coherently.
    pub seed: u64,
    /// Surface (trigram) share for in-lexicon tokens, `0..1`.
    pub surface_blend: f64,
    /// Surface share for initial-prefixed abbreviations (`CID`, `CNAME`).
    pub abbrev_surface_blend: f64,
    /// Ancestor direction decay per hypernym level.
    pub parent_decay: f64,
    /// Weight of the domain direction mixed into non-generic concepts.
    pub domain_pull: f64,
    /// Pooling weight of SQL type/constraint words (they carry little
    /// entity semantics, like stopwords under SBERT attention).
    pub type_word_weight: f64,
    /// Pooling weight of every token after the first. The serializations
    /// `T^a`/`T^t` lead with the element's own name; a transformer's
    /// attention concentrates on that head noun, so context tokens (table
    /// name, type words) are damped relative to it.
    pub context_weight: f64,
    /// Minimum piece length for subword segmentation.
    pub min_piece_len: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            dim: 768,
            seed: 0xC0FF_EE20_26ED_B700,
            surface_blend: 0.18,
            abbrev_surface_blend: 0.32,
            parent_decay: 0.55,
            domain_pull: 0.35,
            type_word_weight: 0.30,
            context_weight: 0.55,
            min_piece_len: 2,
        }
    }
}

/// The encoder `E`. Cheap to clone conceptually but owns caches; share one
/// instance per experiment. Thread-safe: token vectors are cached behind an
/// `RwLock`.
pub struct SignatureEncoder {
    config: EncoderConfig,
    lexicon: Lexicon,
    token_cache: RwLock<HashMap<String, Vec<f64>>>,
}

impl Default for SignatureEncoder {
    fn default() -> Self {
        Self::new(EncoderConfig::default(), Lexicon::default_lexicon())
    }
}

impl SignatureEncoder {
    /// Creates an encoder from a config and lexicon.
    pub fn new(config: EncoderConfig, lexicon: Lexicon) -> Self {
        assert!(config.dim > 0, "dimension must be positive");
        assert!(
            (0.0..=1.0).contains(&config.surface_blend)
                && (0.0..=1.0).contains(&config.abbrev_surface_blend),
            "blends must lie in [0, 1]"
        );
        Self {
            config,
            lexicon,
            token_cache: RwLock::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Signature dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Encodes one serialized metadata text into a unit-norm signature.
    /// Empty or symbol-only text yields the zero vector.
    pub fn encode(&self, text: &str) -> Vec<f64> {
        let tokens = tokenize(text);
        let mut acc = vec![0.0; self.config.dim];
        let mut total_weight = 0.0;
        let mut first = true;
        for tok in &tokens {
            if tok.chars().all(|c| c.is_ascii_digit()) {
                continue; // bare numbers carry no schema semantics
            }
            let position = if first {
                1.0
            } else {
                self.config.context_weight
            };
            first = false;
            let w = self.pool_weight(tok) * position;
            let v = self.token_vector(tok);
            axpy(&mut acc, w, &v);
            total_weight += w;
        }
        if total_weight > 0.0 {
            normalize(&mut acc);
        }
        acc
    }

    /// Encodes a batch of texts into a row-per-text matrix.
    pub fn encode_batch(&self, texts: &[String]) -> Matrix {
        let rows: Vec<Vec<f64>> = texts.iter().map(|t| self.encode(t)).collect();
        if rows.is_empty() {
            Matrix::zeros(0, self.config.dim)
        } else {
            Matrix::from_rows(&rows)
        }
    }

    /// Pooling weight of a token (SQL type words are down-weighted).
    fn pool_weight(&self, token: &str) -> f64 {
        match self.lexicon.resolve(token) {
            Some(e) if e.domain == domains::TYPE => self.config.type_word_weight,
            _ => 1.0,
        }
    }

    /// The (cached) vector of one uppercase token.
    pub fn token_vector(&self, token: &str) -> Vec<f64> {
        // Poison recovery, not a panic: a worker that panicked while
        // holding the cache lock (e.g. an injected fault) must not
        // cascade into every later encode. The cache itself is a pure
        // memo table, so the stored values stay valid.
        //
        // Both acquisitions report to the runtime sanitizer (DESIGN.md
        // §12) under one lock name: read and write are *sequential*
        // here, so a sanitized run records no self-edge — if a future
        // refactor nests them, the cycle shows up in the lock-order
        // digest.
        let read_trace = cs_linalg::sanitize::trace("embed.token_cache");
        if let Some(v) = self
            .token_cache
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(token)
        {
            return v.clone();
        }
        drop(read_trace);
        let v = self.compute_token_vector(token);
        let _write_trace = cs_linalg::sanitize::trace("embed.token_cache");
        self.token_cache
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(token.to_string(), v.clone());
        v
    }

    fn compute_token_vector(&self, token: &str) -> Vec<f64> {
        let surface = trigram_vector(token, self.config.seed, self.config.dim);
        // 1) Direct lexicon hit.
        if let Some(entry) = self.lexicon.resolve(token) {
            return self.blend(
                self.concept_vector(entry),
                &surface,
                self.config.surface_blend,
            );
        }
        // 2) Initial-prefix abbreviation: CNAME → NAME, OID → ID.
        // Strip one *character*, not one byte — a multi-byte first char
        // (non-ASCII identifiers) must not panic on the slice boundary.
        let tail = token
            .char_indices()
            .nth(1)
            .map(|(i, _)| &token[i..])
            .unwrap_or("");
        if token.len() >= 3 && !tail.is_empty() {
            if let Some(entry) = self.lexicon.resolve(tail) {
                return self.blend(
                    self.concept_vector(entry),
                    &surface,
                    self.config.abbrev_surface_blend,
                );
            }
        }
        // 3) WordPiece-style segmentation over the lexicon vocabulary.
        if let Some(pieces) = self.segment(token) {
            let mut acc = vec![0.0; self.config.dim];
            for piece in &pieces {
                let entry = self
                    .lexicon
                    .resolve(piece)
                    .expect("segment returns vocab words");
                axpy(&mut acc, 1.0, &self.concept_vector(entry));
            }
            normalize(&mut acc);
            return self.blend(acc, &surface, self.config.surface_blend);
        }
        // 4) Pure surface form.
        surface
    }

    fn blend(&self, mut semantic: Vec<f64>, surface: &[f64], beta: f64) -> Vec<f64> {
        for x in &mut semantic {
            *x *= 1.0 - beta;
        }
        axpy(&mut semantic, beta, surface);
        normalize(&mut semantic);
        semantic
    }

    /// Concept direction: own direction + decaying hypernym chain + domain.
    fn concept_vector(&self, entry: &ConceptEntry) -> Vec<f64> {
        let mut acc = seeded_direction(
            &format!("concept:{}", entry.concept),
            self.config.seed,
            self.config.dim,
        );
        for (level, anc) in self.lexicon.ancestors(&entry.concept).iter().enumerate() {
            let w = self.config.parent_decay.powi(level as i32 + 1);
            let dir = seeded_direction(
                &format!("concept:{}", anc.concept),
                self.config.seed,
                self.config.dim,
            );
            axpy(&mut acc, w, &dir);
        }
        if entry.domain != domains::GENERIC {
            let dir = seeded_direction(
                &format!("domain:{}", entry.domain),
                self.config.seed,
                self.config.dim,
            );
            axpy(&mut acc, self.config.domain_pull, &dir);
        }
        normalize(&mut acc);
        acc
    }

    /// Minimal-piece segmentation of `token` into lexicon vocabulary words
    /// (each piece at least `min_piece_len` chars). Returns `None` when no
    /// full cover exists.
    pub fn segment(&self, token: &str) -> Option<Vec<String>> {
        let chars: Vec<char> = token.chars().collect();
        let n = chars.len();
        if n < self.config.min_piece_len * 2 {
            return None;
        }
        // dp[i] = min pieces to cover prefix of length i.
        const INF: usize = usize::MAX;
        let mut dp = vec![INF; n + 1];
        let mut back: Vec<usize> = vec![0; n + 1];
        dp[0] = 0;
        for i in 1..=n {
            for j in 0..=(i.saturating_sub(self.config.min_piece_len)) {
                if dp[j] == INF {
                    continue;
                }
                let piece: String = chars[j..i].iter().collect();
                if self.lexicon.contains_token(&piece) && dp[j] + 1 < dp[i] {
                    dp[i] = dp[j] + 1;
                    back[i] = j;
                }
            }
        }
        if dp[n] == INF || dp[n] > 4 {
            return None;
        }
        let mut pieces = Vec::with_capacity(dp[n]);
        let mut i = n;
        while i > 0 {
            let j = back[i];
            pieces.push(chars[j..i].iter().collect::<String>());
            i = j;
        }
        pieces.reverse();
        Some(pieces)
    }

    /// Cosine similarity of two encoded texts — convenience for tests,
    /// examples, and the SIM matcher.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cs_linalg::vecops::cosine(&self.encode(a), &self.encode(b))
    }
}

impl std::fmt::Debug for SignatureEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignatureEncoder")
            .field("config", &self.config)
            .field("lexicon_concepts", &self.lexicon.entries().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::vecops::{cosine, norm};

    fn enc() -> SignatureEncoder {
        SignatureEncoder::default()
    }

    #[test]
    fn signatures_are_unit_norm_and_deterministic() {
        let e = enc();
        let a = e.encode("CID CLIENT INTEGER PRIMARY KEY");
        let b = e.encode("CID CLIENT INTEGER PRIMARY KEY");
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.len(), 768);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = enc();
        let v = e.encode("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn hostile_text_never_produces_non_finite_signatures() {
        // Degenerate serialized metadata — whitespace runs, repeated
        // tokens, huge identifiers, control characters, non-ASCII —
        // must encode to finite vectors (NaN here would silently poison
        // every downstream PCA).
        let e = enc();
        let huge = "X".repeat(10_000);
        let hostile = [
            "   \t\n  ",
            "A A A A A A A A A A A A A A A A",
            huge.as_str(),
            "NULL NULL NULL []",
            "\u{0}\u{1}\u{2}",
            "ÜBERWEISUNG Ω λ 名前",
            "-- ; DROP TABLE []",
        ];
        for text in hostile {
            let v = e.encode(text);
            assert!(
                v.iter().all(|x| x.is_finite()),
                "non-finite signature for {text:?}"
            );
        }
    }

    #[test]
    fn synonyms_are_close_unrelated_are_far() {
        let e = enc();
        let syn = e.similarity("CLIENT", "CUSTOMER");
        let unrel = e.similarity("CLIENT", "CIRCUIT");
        assert!(syn > 0.45, "synonym similarity {syn}");
        assert!(unrel < 0.25, "unrelated similarity {unrel}");
        assert!(syn > unrel + 0.3);
    }

    #[test]
    fn hyponym_sits_between_synonym_and_unrelated() {
        let e = enc();
        let iden = e.similarity("ADDRESS", "ADDR");
        let hypo = e.similarity("CITY", "ADDRESS");
        let unrel = e.similarity("CITY", "ENGINE");
        assert!(iden > hypo, "identical {iden} vs hyponym {hypo}");
        assert!(hypo > unrel + 0.15, "hyponym {hypo} vs unrelated {unrel}");
    }

    #[test]
    fn table_context_disambiguates_cname() {
        // The paper's Figure-1 point: CNAME of a client is NOT the CNAME of
        // a car; the pooled table token separates them.
        let e = enc();
        let client_cname = "CNAME CUSTOMERS VARCHAR";
        let car_cname = "CNAME CAR VARCHAR";
        let client_name = "NAME CLIENT VARCHAR";
        let s_match = e.similarity(client_cname, client_name);
        let s_clash = e.similarity(car_cname, client_name);
        assert!(
            s_match > s_clash + 0.1,
            "client CNAME {s_match} should beat car CNAME {s_clash}"
        );
    }

    #[test]
    fn paper_false_negative_anecdote_surface_gap() {
        // ORDERDATE vs ORDER_DATETIME: similar but not identical.
        let e = enc();
        let a = "ORDERDATE ORDERS DATE";
        let b = "ORDER_DATETIME ORDERS DATE";
        let sim = e.similarity(a, b);
        assert!(sim > 0.6, "related order dates {sim}");
        assert!(sim < 0.995, "must not collapse {sim}");
    }

    #[test]
    fn split_attribute_pools_toward_whole() {
        // FIRST_NAME + LAST_NAME each relate to NAME (inter-sub-typed).
        let e = enc();
        let first = e.similarity("FIRST_NAME CUSTOMER VARCHAR", "NAME CLIENT VARCHAR");
        let unrel = e.similarity("FIRST_NAME CUSTOMER VARCHAR", "LAP RACES INTEGER");
        assert!(first > 0.4, "sub-typed {first}");
        assert!(first > unrel + 0.3);
    }

    #[test]
    fn segmentation_splits_joined_words() {
        let e = enc();
        assert_eq!(e.segment("ORDERDATE").unwrap(), vec!["ORDER", "DATE"]);
        assert_eq!(
            e.segment("CUSTOMERNUMBER").unwrap(),
            vec!["CUSTOMER", "NUMBER"]
        );
        assert!(e.segment("QZXV").is_none());
        // Too short to split.
        assert!(e.segment("AB").is_none());
    }

    #[test]
    fn abbreviation_rule_maps_cid_to_identifier() {
        let e = enc();
        let cid = e.similarity("CID", "ID");
        let cid_vs_unrelated = e.similarity("CID", "ADDRESS");
        assert!(cid > 0.4, "CID~ID {cid}");
        assert!(cid > cid_vs_unrelated + 0.2);
        // But different abbreviations stay distinguishable.
        let cid_oid = e.similarity("CID", "OID");
        assert!(cid_oid < 0.98);
    }

    #[test]
    fn type_words_are_downweighted_but_present() {
        let e = enc();
        // Same name, different types: still very similar.
        let s = e.similarity("PRICE PRODUCTS DECIMAL", "PRICE PRODUCTS FLOAT");
        assert!(s > 0.85, "type change keeps similarity {s}");
        // Type-only difference smaller than name difference.
        let name_change = e.similarity("PRICE PRODUCTS DECIMAL", "WEIGHT PRODUCTS DECIMAL");
        assert!(s > name_change);
    }

    #[test]
    fn domain_pull_separates_commerce_from_motorsport() {
        let e = enc();
        // Two generic-ish texts from different domains.
        let commerce = e.encode("SHIPMENT ORDERS DATE");
        let motorsport = e.encode("SPRINT RACES DATE");
        let commerce2 = e.encode("PAYMENT INVOICE DATE");
        let within = cosine(&commerce, &commerce2);
        let across = cosine(&commerce, &motorsport);
        assert!(within > across, "within-domain {within} vs across {across}");
    }

    #[test]
    fn batch_matches_individual() {
        let e = enc();
        let texts = vec![
            "CLIENT [CID, NAME]".to_string(),
            "CAR [CID, CNAME]".to_string(),
        ];
        let m = e.encode_batch(&texts);
        assert_eq!(m.shape(), (2, 768));
        assert_eq!(m.row(0), e.encode(&texts[0]).as_slice());
    }

    #[test]
    fn empty_batch_shape() {
        let e = enc();
        let m = e.encode_batch(&[]);
        assert_eq!(m.shape(), (0, 768));
    }

    #[test]
    fn different_seeds_give_different_geometry() {
        let cfg = EncoderConfig {
            seed: 42,
            ..EncoderConfig::default()
        };
        let e1 = SignatureEncoder::new(cfg, Lexicon::default_lexicon());
        let e2 = enc();
        assert_ne!(e1.encode("CLIENT"), e2.encode("CLIENT"));
        // But the semantic *structure* is preserved.
        assert!(e1.similarity("CLIENT", "CUSTOMER") > 0.45);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        SignatureEncoder::new(
            EncoderConfig {
                dim: 0,
                ..EncoderConfig::default()
            },
            Lexicon::default_lexicon(),
        );
    }

    #[test]
    fn numbers_are_skipped() {
        let e = enc();
        let a = e.encode("ADDRESS1 CUSTOMER VARCHAR");
        let b = e.encode("ADDRESS2 CUSTOMER VARCHAR");
        // ADDRESS1/ADDRESS2 tokenize to ADDRESS + digit; digits skipped.
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-9);
    }
}
