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
//!
//! ## The batch plan
//!
//! Like the paper's phase I, a catalog is embedded in one batch, and each
//! distinct label is encoded once. [`SignatureEncoder::encode_lists`]
//! first *plans*: it tokenizes every text once and interns the distinct
//! tokens, their direction labels (trigrams, `concept:`/`domain:` labels)
//! and the concept vectors built from those as recipes with dense ids in
//! first-use order, counting every use. It then pools every text straight
//! into its own list's output matrix, evaluating each recipe on its first
//! use — a seeded direction is generated once — and dropping its vector
//! after its last. Sums keep their order — trigrams by position, the
//! hypernym chain by chain, pooling by token — so a row is bit-identical
//! to encoding its text alone.
//!
//! A vector is live only between its first and last use, and uses follow
//! first-use order, so the live set is bounded by what nearby texts share
//! rather than by the batch size: at most 228 of OC3-FO's 987 recipes are
//! live at once, 498 of 1,231 on a generated 1128-element catalog, and
//! 1,348 of 6,224 on an 11250-element one. Nothing outlives the call.

use crate::hash::seeded_direction;
use crate::lexicon::{domains, ConceptEntry, Lexicon};
use cs_linalg::vecops::{axpy, normalize};
use cs_linalg::Matrix;
use cs_schema::text::{tokenize, trigrams};
use std::collections::HashMap;

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

/// The encoder `E`: a configuration and a lexicon, nothing else. Every
/// call plans its own batch (module docs) and keeps nothing afterwards,
/// so an encoder is a plain value — clone it, share it across threads, or
/// build a fresh one per pass; the signatures are the same bits.
#[derive(Clone)]
pub struct SignatureEncoder {
    config: EncoderConfig,
    lexicon: Lexicon,
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
        Self { config, lexicon }
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
        self.encode_lists(&[&[text]])
            .pop()
            .expect("one list in, one matrix out")
            .into_vec()
    }

    /// Encodes a batch of texts into a row-per-text matrix.
    pub fn encode_batch(&self, texts: &[String]) -> Matrix {
        self.encode_lists(&[texts])
            .pop()
            .expect("one list in, one matrix out")
    }

    /// Encodes several lists of texts — a catalog's per-schema
    /// serializations — as one planned batch, returning one
    /// row-per-text matrix (`len × dim`) per list. Row `i` of matrix `k`
    /// is bit-identical to `encode(lists[k][i])`, whatever else the batch
    /// holds.
    pub fn encode_lists<S: AsRef<str>>(&self, lists: &[&[S]]) -> Vec<Matrix> {
        BatchPlan::new(self, lists).encode()
    }

    /// The lexicon concept behind an initial-prefixed abbreviation —
    /// `CNAME` → `NAME`, `OID` → `ID` — for tokens of at least three
    /// *characters*. Counted and stripped by char, not byte, so a
    /// multi-byte first char neither panics on the slice boundary nor
    /// lets a two-char token through.
    fn abbreviation(&self, token: &str) -> Option<&ConceptEntry> {
        let mut chars = token.chars();
        chars.next()?;
        let tail = chars.as_str();
        if tail.chars().count() < 2 {
            return None;
        }
        self.lexicon.resolve(tail)
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

/// How a token's semantic part is built; the surface part is always its
/// trigram sum.
enum Semantic {
    /// Out of lexicon and unsegmentable: the surface form alone.
    Surface,
    /// One concept vector blended with the surface at the given share
    /// (direct lexicon hit or abbreviation).
    Concept(usize, f64),
    /// WordPiece-style pieces: the normalized sum of their concept
    /// vectors, blended at the surface share.
    Pieces(Vec<usize>),
}

/// A vector of the batch, by what it is built from.
enum Recipe {
    /// A seeded Gaussian direction (a trigram, `concept:` or `domain:`
    /// label).
    Direction(String),
    /// A concept vector: its own direction, then `(direction, weight)`
    /// terms — the hypernym chain in chain order, then the domain.
    Concept {
        own: usize,
        terms: Vec<(usize, f64)>,
    },
    /// A distinct token: its trigram directions in position order, its
    /// semantic part, and its pooling weight (SQL type words are
    /// down-weighted).
    Token {
        grams: Vec<usize>,
        semantic: Semantic,
        weight: f64,
    },
}

/// The plan of one [`SignatureEncoder::encode_lists`] call.
///
/// Every text is tokenized once; distinct tokens, direction labels and
/// concept vectors are interned as recipes with dense ids in first-use
/// order (the maps are only probed, never iterated), and every reference
/// to a recipe is counted so the evaluation can drop its vector after the
/// last one.
struct BatchPlan<'e> {
    encoder: &'e SignatureEncoder,
    label_ids: HashMap<String, usize>,
    concept_ids: HashMap<String, usize>,
    token_ids: HashMap<String, usize>,
    recipes: Vec<Recipe>,
    /// Counted references to each recipe.
    uses: Vec<u32>,
    /// Token recipe ids of every text in text order, bare numbers left
    /// out.
    occurrences: Vec<u32>,
    /// End of each text's run in `occurrences`.
    text_ends: Vec<usize>,
    list_lens: Vec<usize>,
}

impl<'e> BatchPlan<'e> {
    fn new<S: AsRef<str>>(encoder: &'e SignatureEncoder, lists: &[&[S]]) -> Self {
        let mut plan = Self {
            encoder,
            label_ids: HashMap::new(),
            concept_ids: HashMap::new(),
            token_ids: HashMap::new(),
            recipes: Vec::new(),
            uses: Vec::new(),
            occurrences: Vec::new(),
            text_ends: Vec::new(),
            list_lens: lists.iter().map(|l| l.len()).collect(),
        };
        for text in lists.iter().flat_map(|l| l.iter()) {
            for tok in tokenize(text.as_ref()) {
                if tok.chars().all(|c| c.is_ascii_digit()) {
                    continue; // bare numbers carry no schema semantics
                }
                let id = plan.token(&tok);
                plan.occurrences
                    .push(u32::try_from(id).expect("fewer than 2^32 recipes"));
            }
            plan.text_ends.push(plan.occurrences.len());
        }
        plan
    }

    fn recipe(&mut self, recipe: Recipe) -> usize {
        self.recipes.push(recipe);
        self.uses.push(0);
        self.recipes.len() - 1
    }

    /// Counts one use of the seeded direction of `label`.
    fn direction(&mut self, label: &str) -> usize {
        let id = match self.label_ids.get(label) {
            Some(&id) => id,
            None => {
                let id = self.recipe(Recipe::Direction(label.to_string()));
                self.label_ids.insert(label.to_string(), id);
                id
            }
        };
        self.uses[id] += 1;
        id
    }

    /// Counts one use of a concept vector: own direction + decaying
    /// hypernym chain + domain.
    fn concept(&mut self, entry: &ConceptEntry) -> usize {
        let id = match self.concept_ids.get(&entry.concept) {
            Some(&id) => id,
            None => {
                let config = &self.encoder.config;
                let (decay, pull) = (config.parent_decay, config.domain_pull);
                let own = self.direction(&format!("concept:{}", entry.concept));
                let mut terms = Vec::new();
                let ancestors = self.encoder.lexicon.ancestors(&entry.concept);
                for (level, anc) in ancestors.iter().enumerate() {
                    let dir = self.direction(&format!("concept:{}", anc.concept));
                    terms.push((dir, decay.powi(level as i32 + 1)));
                }
                if entry.domain != domains::GENERIC {
                    terms.push((self.direction(&format!("domain:{}", entry.domain)), pull));
                }
                let id = self.recipe(Recipe::Concept { own, terms });
                self.concept_ids.insert(entry.concept.clone(), id);
                id
            }
        };
        self.uses[id] += 1;
        id
    }

    /// Counts one occurrence of a token, planning its vector on first
    /// sight.
    fn token(&mut self, token: &str) -> usize {
        if let Some(&id) = self.token_ids.get(token) {
            self.uses[id] += 1;
            return id;
        }
        let encoder = self.encoder;
        let config = &encoder.config;
        let grams = trigrams(token).iter().map(|g| self.direction(g)).collect();
        let mut weight = 1.0;
        // 1) Direct lexicon hit; 2) initial-prefix abbreviation;
        // 3) WordPiece-style segmentation; 4) pure surface form.
        let semantic = if let Some(entry) = encoder.lexicon.resolve(token) {
            if entry.domain == domains::TYPE {
                weight = config.type_word_weight;
            }
            Semantic::Concept(self.concept(entry), config.surface_blend)
        } else if let Some(entry) = encoder.abbreviation(token) {
            Semantic::Concept(self.concept(entry), config.abbrev_surface_blend)
        } else if let Some(pieces) = encoder.segment(token) {
            Semantic::Pieces(
                pieces
                    .iter()
                    .map(|p| {
                        let entry = encoder.lexicon.resolve(p);
                        self.concept(entry.expect("segment returns vocab words"))
                    })
                    .collect(),
            )
        } else {
            Semantic::Surface
        };
        let id = self.recipe(Recipe::Token {
            grams,
            semantic,
            weight,
        });
        self.uses[id] += 1;
        self.token_ids.insert(token.to_string(), id);
        id
    }

    /// Pools every text straight into its list's output matrix: the
    /// weighted mean of its token vectors in token order, L2-normalized.
    fn encode(&self) -> Vec<Matrix> {
        let config = &self.encoder.config;
        let mut live = Live {
            slots: vec![None; self.recipes.len()],
            uses: self.uses.clone(),
            spare: Vec::new(),
        };
        let mut ends = self.text_ends.iter();
        let mut start = 0;
        let out = self
            .list_lens
            .iter()
            .map(|&len| {
                let mut m = Matrix::zeros(len, config.dim);
                for r in 0..len {
                    let end = *ends.next().expect("one end per text");
                    let acc = m.row_mut(r);
                    let mut total_weight = 0.0;
                    for (i, &t) in self.occurrences[start..end].iter().enumerate() {
                        let t = t as usize;
                        let Recipe::Token { weight, .. } = self.recipes[t] else {
                            unreachable!("occurrences hold token recipes")
                        };
                        let position = if i == 0 { 1.0 } else { config.context_weight };
                        let w = weight * position;
                        axpy(acc, w, self.vector(&mut live, t));
                        live.release(t);
                        total_weight += w;
                    }
                    if total_weight > 0.0 {
                        normalize(acc);
                    }
                    start = end;
                }
                m
            })
            .collect();
        debug_assert!(
            live.slots.iter().all(Option::is_none),
            "a vector outlived its uses"
        );
        out
    }

    /// The vector of recipe `id`, evaluated now if it is not live. Each
    /// recipe is evaluated once, on its first use.
    fn vector<'l>(&self, live: &'l mut Live, id: usize) -> &'l [f64] {
        if live.slots[id].is_none() {
            let config = &self.encoder.config;
            let mut v = live.buffer(config.dim);
            match &self.recipes[id] {
                Recipe::Direction(label) => seeded_direction(label, config.seed, &mut v),
                Recipe::Concept { own, terms } => {
                    v.copy_from_slice(self.vector(live, *own));
                    live.release(*own);
                    for &(dir, w) in terms {
                        axpy(&mut v, w, self.vector(live, dir));
                        live.release(dir);
                    }
                    normalize(&mut v);
                }
                Recipe::Token {
                    grams, semantic, ..
                } => {
                    let mut surface = live.buffer(config.dim);
                    surface.fill(0.0);
                    for &g in grams {
                        axpy(&mut surface, 1.0, self.vector(live, g));
                        live.release(g);
                    }
                    normalize(&mut surface);
                    match semantic {
                        Semantic::Surface => v.copy_from_slice(&surface),
                        &Semantic::Concept(c, beta) => {
                            blend_into(&mut v, self.vector(live, c), &surface, beta);
                            live.release(c);
                        }
                        Semantic::Pieces(concepts) => {
                            let mut pieces = live.buffer(config.dim);
                            pieces.fill(0.0);
                            for &c in concepts {
                                axpy(&mut pieces, 1.0, self.vector(live, c));
                                live.release(c);
                            }
                            normalize(&mut pieces);
                            blend_into(&mut v, &pieces, &surface, config.surface_blend);
                            live.spare.push(pieces);
                        }
                    }
                    live.spare.push(surface);
                }
            }
            live.slots[id] = Some(v);
        }
        live.slots[id].as_deref().expect("evaluated above")
    }
}

/// The live vectors of one evaluation and their remaining uses.
struct Live {
    slots: Vec<Option<Vec<f64>>>,
    uses: Vec<u32>,
    /// Buffers of dropped vectors, reused for the next evaluation.
    spare: Vec<Vec<f64>>,
}

impl Live {
    /// A `dim`-long buffer with unspecified contents.
    fn buffer(&mut self, dim: usize) -> Vec<f64> {
        self.spare.pop().unwrap_or_else(|| vec![0.0; dim])
    }

    /// Consumes one counted use of `id`; the last one drops its vector.
    fn release(&mut self, id: usize) {
        self.uses[id] -= 1;
        if self.uses[id] == 0 {
            if let Some(v) = self.slots[id].take() {
                self.spare.push(v);
            }
        }
    }
}

/// `row = normalize((1 − beta)·semantic + beta·surface)`.
fn blend_into(row: &mut [f64], semantic: &[f64], surface: &[f64], beta: f64) {
    for (x, &s) in row.iter_mut().zip(semantic) {
        *x = s * (1.0 - beta);
    }
    axpy(row, beta, surface);
    normalize(row);
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

    /// Degenerate serialized metadata — whitespace runs, repeated tokens,
    /// huge identifiers, control characters, non-ASCII.
    fn hostile_texts() -> Vec<String> {
        [
            "   \t\n  ",
            "A A A A A A A A A A A A A A A A",
            &"X".repeat(10_000),
            "NULL NULL NULL []",
            "\u{0}\u{1}\u{2}",
            "ÜBERWEISUNG Ω λ 名前",
            "-- ; DROP TABLE []",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect()
    }

    #[test]
    fn hostile_text_never_produces_non_finite_signatures() {
        // NaN here would silently poison every downstream PCA.
        let e = enc();
        for text in hostile_texts() {
            let v = e.encode(&text);
            assert!(
                v.iter().all(|x| x.is_finite()),
                "non-finite signature for {text:?}"
            );
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batch_rows_equal_single_encodes_bit_for_bit() {
        // Duplicates, a permutation, empty and digit-only texts, hostile
        // texts and every token path (lexicon hit, type word,
        // abbreviation, segmentation, pure surface): a row must not depend
        // on what else the batch holds or in which order.
        let mut texts: Vec<String> = [
            "CLIENT [CID, NAME]",
            "CNAME CAR VARCHAR",
            "ORDERDATE ORDERS DATE",
            "CUSTOMERNUMBER CUSTOMERS INTEGER",
            "XYLOPHRAX QUIMBLETON",
            "",
            "2024 17",
            "ADDRESS1 CUSTOMER VARCHAR",
            "CLIENT [CID, NAME]",
            "CITY ADDRESS",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        texts.extend(hostile_texts());
        let mut permuted = texts.clone();
        permuted.reverse();
        permuted.rotate_left(3);
        for dim in [64, 768] {
            let e = SignatureEncoder::new(
                EncoderConfig {
                    dim,
                    ..EncoderConfig::default()
                },
                Lexicon::default_lexicon(),
            );
            let lists: [&[String]; 3] = [&texts, &[], &permuted];
            let out = e.encode_lists(&lists);
            assert_eq!(out.len(), 3);
            assert_eq!(out[1].shape(), (0, dim));
            for (list, m) in lists.iter().zip(&out) {
                assert_eq!(m.shape(), (list.len(), dim));
                for (i, text) in list.iter().enumerate() {
                    let alone = e.encode(text);
                    assert_eq!(bits(m.row(i)), bits(&alone), "{dim}-d {text:?}");
                }
            }
            assert_eq!(
                bits(e.encode_batch(&texts).as_slice()),
                bits(out[0].as_slice())
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
    fn abbreviation_rule_counts_chars_not_bytes() {
        // `ÉQ` is two chars but three bytes: too short for the
        // initial-prefix rule, so a lexicon entry for its tail `Q` must
        // not change it. `ÉQX` is three chars, so its tail `QX` applies.
        let mut entries = Lexicon::default_lexicon().entries().to_vec();
        let plain = SignatureEncoder::new(EncoderConfig::default(), Lexicon::new(entries.clone()));
        entries.push(ConceptEntry::new(
            "probe",
            None,
            domains::GENERIC,
            &["Q", "QX"],
        ));
        let probed = SignatureEncoder::new(EncoderConfig::default(), Lexicon::new(entries));
        for two_chars in ["ÉQ", "AQ"] {
            assert_eq!(
                bits(&probed.encode(two_chars)),
                bits(&plain.encode(two_chars)),
                "{two_chars}"
            );
        }
        assert_ne!(bits(&probed.encode("ÉQX")), bits(&plain.encode("ÉQX")));
        assert_ne!(bits(&probed.encode("AQX")), bits(&plain.encode("AQX")));
    }

    #[test]
    fn out_of_lexicon_spellings_share_surface_mass() {
        // Out-of-lexicon, unsegmentable tokens are their trigram sum.
        let e = enc();
        let a = e.encode("XYLOPHRAX");
        let b = e.encode("XYLOPHRAXES");
        let c = e.encode("QUIMBLETON");
        assert!((norm(&a) - 1.0).abs() < 1e-12);
        assert!(
            cosine(&a, &b) > 0.6,
            "near-identical spellings: {}",
            cosine(&a, &b)
        );
        assert!(
            cosine(&a, &c) < 0.3,
            "unrelated spellings: {}",
            cosine(&a, &c)
        );
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
