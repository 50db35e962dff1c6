//! # cs-embed
//!
//! Deterministic semantic signature encoder — the workspace's substitute
//! for the paper's Sentence-BERT (`all-mpnet-base-v2`) encoder `E`.
//!
//! ## Why a substitute
//!
//! The paper encodes metadata serializations (`T^a` / `T^t` strings) into
//! 768-dimensional signatures with a pre-trained language model. Shipping
//! model weights is impossible here, and what the scoping pipeline consumes
//! is only the *geometry* of the signature cloud:
//!
//! 1. synonyms land close (`CLIENT` ≈ `CUSTOMER`),
//! 2. hyponyms land at an angle to their hypernym (`CITY` vs `ADDRESS`),
//! 3. unrelated domains land far apart (commerce vs motorsport),
//! 4. context words shift the pooled vector (`CNAME CLIENT …` differs from
//!    `CNAME CAR …`),
//! 5. surface form matters a little (`ORDERDATE` vs `ORDER_DATETIME`
//!    similar but not identical).
//!
//! [`SignatureEncoder`] reproduces exactly these five relations with a
//! curated concept [`lexicon`], seeded Gaussian concept directions, and
//! character-trigram [`hash`]ing for out-of-vocabulary tokens, pooled by a
//! stopword-aware weighted mean (Sentence-BERT's average pooling analog).
//! Texts are split by the workspace's one identifier tokenizer,
//! [`cs_schema::text::tokenize`], and hashed over its
//! [`cs_schema::text::trigrams`]. Everything is seeded: identical inputs
//! give bit-identical signatures on every platform, which the experiment
//! harness relies on.

pub mod encoder;
pub mod hash;
pub mod lexicon;

pub use encoder::{EncoderConfig, SignatureEncoder};
pub use lexicon::{ConceptEntry, Lexicon};
