//! Golden-file regression tests: rebuild the paper-table CSVs through the
//! shared [`cs_repro::goldens`] builders, write them to a temp dir, and
//! byte-diff them against the checked-in files under `results/`.
//!
//! Any change to datasets, encoders, numerics, or the parallel runtime
//! that moves a single byte of output fails here. The determinism
//! contract (DESIGN.md §8) is what makes this a meaningful gate: worker
//! counts may never influence these bytes.
//!
//! `table2`/`table3`, `baseline_lexical` and the Fig. 5/6 series are
//! cheap and always run.
//! `table4`, `fig7`, `extension_nonlinear`, `ablation`, `ann_quality`
//! and `scaling_quality` need minutes in a debug build, so they only run when
//! optimized (`cargo test --release`) or when `CS_GOLDEN_FULL` is set.

use std::path::PathBuf;

use cs_repro::csv::CsvTable;
use cs_repro::{figures, goldens};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Writes the regenerated table to a temp dir, reads it back, and
/// compares byte-for-byte with the checked-in golden.
fn assert_matches_golden(name: &str, csv: &CsvTable) {
    let golden_path = results_dir().join(name);
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", golden_path.display()));

    let tmp = std::env::temp_dir().join(format!("cs_golden_{}", std::process::id()));
    let regen_path = tmp.join(name);
    csv.write_to(&regen_path).expect("write regenerated CSV");
    let regenerated = std::fs::read_to_string(&regen_path).expect("read regenerated CSV");
    let _ = std::fs::remove_dir_all(&tmp);

    if regenerated != golden {
        let line = golden
            .lines()
            .zip(regenerated.lines())
            .position(|(g, r)| g != r)
            .map(|i| i + 1);
        panic!(
            "{name} diverged from results/{name} (first differing line: {}); \
             regenerate with `cargo run --release -p cs-repro --bin all` \
             and inspect the diff before committing",
            line.map_or("length".to_string(), |l| l.to_string()),
        );
    }
}

/// True when the expensive goldens should run: optimized builds always,
/// debug builds only on explicit request.
fn heavy_goldens_enabled() -> bool {
    !cfg!(debug_assertions) || cs_linalg::config::env_flag(cs_linalg::config::GOLDEN_FULL)
}

#[test]
fn table2_csv_is_byte_identical() {
    assert_matches_golden("table2.csv", &goldens::table2().csv);
}

#[test]
fn table3_csv_is_byte_identical() {
    assert_matches_golden("table3.csv", &goldens::table3().csv);
}

#[test]
fn baseline_lexical_csv_is_byte_identical() {
    assert_matches_golden("baseline_lexical.csv", &goldens::baseline_lexical().csv);
}

/// Byte-diffs the six CSVs a `fig5`/`fig6` binary writes: metrics, ROC
/// and PR series for the best global scoping method and for
/// collaborative scoping, at the binaries' 50-point grid.
fn assert_figure_matches_golden(fig: &str, dataset: &cs_datasets::Dataset) {
    let data = figures::figure_data(dataset, 50);
    for (tag, result, param) in [
        ("scoping", &data.scoping, "p"),
        ("collaborative", &data.collaborative, "v"),
    ] {
        for (name, csv) in figures::method_csvs(fig, tag, &result.curve, param) {
            assert_matches_golden(&name, &csv);
        }
    }
}

#[test]
fn fig5_csvs_are_byte_identical() {
    assert_figure_matches_golden("fig5", &cs_datasets::oc3());
}

#[test]
fn fig6_csvs_are_byte_identical() {
    assert_figure_matches_golden("fig6", &cs_datasets::oc3_fo());
}

#[test]
fn table4_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!("skipping table4 golden in debug build (set CS_GOLDEN_FULL=1 to force)");
        return;
    }
    // The default harness budget used by the `table4` binary: 50 grid
    // points, a 10×25 autoencoder ensemble.
    assert_matches_golden("table4.csv", &goldens::table4(50, 10, 25).csv);
}

#[test]
fn fig7_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!("skipping fig7 golden in debug build (set CS_GOLDEN_FULL=1 to force)");
        return;
    }
    // The `fig7` binary's default: 20 grid points.
    assert_matches_golden("fig7.csv", &goldens::fig7(20).csv);
}

#[test]
fn extension_nonlinear_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!(
            "skipping extension_nonlinear golden in debug build (set CS_GOLDEN_FULL=1 to force)"
        );
        return;
    }
    assert_matches_golden(
        "extension_nonlinear.csv",
        &goldens::extension_nonlinear().csv,
    );
}

#[test]
fn ablation_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!("skipping ablation golden in debug build (set CS_GOLDEN_FULL=1 to force)");
        return;
    }
    assert_matches_golden("ablation.csv", &goldens::ablation().csv);
}

#[test]
fn ann_quality_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!("skipping ann_quality golden in debug build (set CS_GOLDEN_FULL=1 to force)");
        return;
    }
    // The `ann_quality` binary's pinned grid: the scaling-quality catalog
    // family measured for ANN recall and F1 parity.
    assert_matches_golden(
        "ann_quality.csv",
        &goldens::ann_quality(
            &goldens::SCALING_QUALITY_TOTALS,
            &goldens::SCALING_QUALITY_UNLINKABLE,
        )
        .csv,
    );
}

#[test]
fn scaling_quality_csv_is_byte_identical() {
    if !heavy_goldens_enabled() {
        eprintln!("skipping scaling_quality golden in debug build (set CS_GOLDEN_FULL=1 to force)");
        return;
    }
    // The `scaling_quality` binary's pinned grid: generated catalogs
    // over size × unlinkable-fraction, original vs streamlined.
    assert_matches_golden(
        "scaling_quality.csv",
        &goldens::scaling_quality(
            &goldens::SCALING_QUALITY_TOTALS,
            &goldens::SCALING_QUALITY_UNLINKABLE,
        )
        .csv,
    );
}
