//! # cs-fault
//!
//! Deterministic, std-only **fault-injection harness** for the whole
//! scoping pipeline (embed → signatures → local models → collaborative
//! assessment → sweep → matchers).
//!
//! The harness drives every public entry point with seeded, reproducible
//! degenerate inputs — NaN/Inf signature entries, zero-variance and
//! rank-deficient signature matrices, empty / singleton / duplicate
//! schemas, forced worker panics inside the pool (`cs_linalg::pool`) — and records
//! each stage's outcome as plain text lines. Because every injected
//! fault is seeded and every pipeline stage is deterministic, the full
//! fault matrix produces **byte-identical** output under every execution
//! policy (`Sequential`, pinned pools of any size, the global pool) and
//! every `CS_THREADS` setting; [`harness::run_matrix`] checks exactly
//! that and digests the result.
//!
//! Three submodules:
//!
//! - [`inject`] — pure signature-level corruptors (poison an entry,
//!   flatten a schema to zero variance). Catalog-level degeneracies
//!   (empty / singleton / duplicate schemas) live in
//!   `cs_datasets::synthetic`, since those are expressible as real
//!   catalogs.
//! - [`harness`] — the fault-case matrix and the stage runner that
//!   pushes each case through the full pipeline, proving that typed
//!   errors (never panics) cross the public API boundary and that the
//!   sweep degrades gracefully. The matrix is parameterized over the
//!   generator config ([`harness::run_matrix_on`]), so any synthetic
//!   catalog can host the same 14 cases.
//! - [`fuzz`] — a deterministic knob lattice over
//!   `cs_datasets::synthetic::SyntheticConfig` feeding ≥ 20 generated
//!   catalogs through the full matrix, digest-compared across thread
//!   counts by the `fuzz_smoke` binary.
//!
//! Worker panics are forced through `cs_linalg::pool::fault`, a test-only
//! hook that keeps the no-ambient-authority policy intact: the hook is
//! armed explicitly per case, filters on the target pool's tag (or the
//! caller thread for the sequential path), and disarms on drop.

pub mod fuzz;
pub mod harness;
pub mod inject;

pub use fuzz::{knob_lattice, run_fuzz, FuzzCatalog, FuzzReport};
pub use harness::{
    cases, run_case, run_case_on, run_matrix, run_matrix_on, FaultCase, MatrixReport, Scenario,
    SigRecipe,
};
pub use inject::{flatten_schema, poison_non_finite};
