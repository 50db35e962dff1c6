//! # cs-linalg
//!
//! Dense linear-algebra substrate for the collaborative-scoping workspace.
//!
//! Everything the paper's pipeline needs numerically lives here, implemented
//! from scratch (no external linear-algebra crates):
//!
//! - [`Matrix`] — a row-major dense `f64` matrix with the usual operations,
//! - [`svd`] — one-sided Jacobi singular value decomposition, and the
//!   Householder–QL symmetric eigensolver behind the exact PCA fit's
//!   Gram-matrix economy path for the common `rows ≪ cols` signature case,
//! - [`Pca`] — the PCA encoder–decoder used by both global scoping and the
//!   paper's local self-supervised models (Algorithm 1),
//! - [`stats`] — column means/variances, z-scores, distance helpers,
//! - [`SplitMix64`] / [`Xoshiro256`] — small seeded PRNGs so every
//!   experiment in the workspace is exactly reproducible.
//!
//! The signature matrices this workspace manipulates are short and wide
//! (hundreds of rows, 768 columns). The reference loops in [`matrix`] are
//! written for clarity and numerical robustness; large products dispatch
//! to the cache-tiled kernels of [`kernels`], which are pinned by
//! property tests to be **bit-identical** to the reference loops
//! (DESIGN.md §8) — blocking only reorders memory traffic, never
//! floating-point accumulation.

pub mod check;
pub mod config;
pub mod kernels;
pub mod matrix;
pub mod pca;
pub mod pool;
pub mod projection;
pub mod qr;
pub mod rng;
pub mod sanitize;
pub mod stats;
pub mod svd;
pub mod vecops;

pub use matrix::Matrix;
pub use pca::{ExplainedVariance, Pca, PcaConfig, PcaRehydrateError, PcaSolver, PcaTarget};
pub use projection::TruncatedProjection;
pub use qr::qr;
pub use rng::{SplitMix64, Xoshiro256};
pub use svd::{Svd, SvdError};
pub use vecops::total_cmp_f64;

/// Numerical tolerance used by iterative algorithms in this crate.
pub const EPS: f64 = 1e-12;
