//! # cs-repro
//!
//! The experiment harness: everything needed to regenerate each table and
//! figure of the paper. The binaries under `src/bin/` print the paper's
//! rows/series and write CSV files under `results/`; this library holds
//! the shared experiment logic so the binaries stay thin and the logic
//! stays testable.
//!
//! | binary | regenerates |
//! |---|---|
//! | `table2` | Table 2 — linkable/unlinkable element counts |
//! | `table3` | Table 3 — Cartesian sizes and annotated linkages |
//! | `table4` | Table 4 — AUC-F1 / AUC-ROC / AUC-ROC′ / AUC-PR of all scoping methods |
//! | `fig5` / `fig6` | Figures 5–6 — metric curves, ROC, PR for OC3 / OC3-FO |
//! | `fig7` | Figure 7 — PQ/PC/F1/RR ablation with SIM / CLUSTER / LSH |
//! | `ablation` | design ablations — relaxed `l_k`, combination rules, serialization |
//! | `baseline_lexical` | §2.2 — token-trigram name matching vs SIM, original and streamlined |
//! | `discussion` | §4.4 — pass-operation counts and pruning floors |
//! | `all` | everything above |

pub mod ablation;
pub mod csv;
pub mod experiments;
pub mod figures;
pub mod goldens;
pub mod report;

pub use experiments::{dataset_signatures, v_grid, ScopingMethodResult, DEFAULT_GRID_STEPS};

/// Where result CSVs are written, relative to the workspace root.
pub const RESULTS_DIR: &str = "results";
