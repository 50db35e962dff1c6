//! `bench_json` — runs the scoping / matching / scaling / ann / solver
//! benchmark groups and writes one machine-readable document.
//!
//! Usage:
//!
//! ```text
//! bench_json [--smoke] [--out PATH] [--budget PATH]
//! ```
//!
//! - `--smoke`: tiny datasets and sample budgets (< 5 s even in debug);
//!   this is what `scripts/verify.sh` runs as its `bench-smoke` gate.
//! - `--out PATH`: where to write the document (default
//!   `target/bench.json`; a full-mode run checked in as a baseline is
//!   renamed to the next `BENCH_<n>.json`).
//! - `--budget PATH`: regression gate — reads the checked-in budget
//!   document (`BENCH_BUDGET.json`) and fails with exit code 1 if any
//!   gated benchmark's median exceeds `2 ×` its budgeted value. Gated:
//!   the `encode_catalog` scoping benchmark (phase I's batch encoder), the
//!   `global_pca05` scoping benchmark (an accidental return to the
//!   dense-SVD hot path is ~10× slower), the `size/` + `unlinkable/`
//!   smoke entries of the `scaling` group (the sweep must stay inside
//!   the verify smoke budget) — the `size/` family includes the budgeted
//!   `match_ann` leg that re-enables the 100k matcher point in full
//!   mode — and the worst entry of the `ann` retrieval group. The 2×
//!   headroom absorbs machine noise.
//!
//! Without `--smoke` the emitter measures the real OC3 / OC3-FO datasets
//! with bench-grade calibration; run that from a release build.

use cs_bench::emitter::{self, Mode};
use cs_core::json::JsonValue;

fn usage() -> ! {
    eprintln!("usage: bench_json [--smoke] [--out PATH] [--budget PATH]");
    std::process::exit(2);
}

/// Multiple of the budgeted median this run may reach before the gate
/// fails.
const BUDGET_HEADROOM: f64 = 2.0;

/// Every gated benchmark family: budget key in `BENCH_BUDGET.json`, the
/// record group, and the id prefix selecting the gated records. Families
/// with several matching records (the scaling sweeps) gate on the worst
/// median.
const BUDGET_GATES: [(&str, &str, &str); 5] = [
    ("encode_catalog_ns", "scoping", "encode_catalog/"),
    ("global_pca05_ns", "scoping", "global_pca05/"),
    ("scaling_size_ns", "scaling", "size/"),
    ("scaling_unlinkable_ns", "scaling", "unlinkable/"),
    ("ann_ns", "ann", ""),
];

/// Enforces the `--budget` gate against the measured report; returns the
/// human-readable verdict lines, or an error describing why the gate
/// could not run or did not pass.
fn check_budget(report: &emitter::BenchReport, path: &str) -> Result<Vec<String>, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read budget {path}: {e}"))?;
    let doc = cs_core::json::parse(&body).map_err(|e| format!("budget {path} is not JSON: {e}"))?;
    let mut verdicts = Vec::new();
    for (key, group, prefix) in BUDGET_GATES {
        let budget_ns = doc
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("budget {path} lacks a numeric {key}"))?;
        if !(budget_ns.is_finite() && budget_ns > 0.0) {
            return Err(format!("budget {path}: {key} = {budget_ns} is not usable"));
        }
        let worst = report
            .records
            .iter()
            .filter(|r| r.group == group && r.id.starts_with(prefix))
            .max_by_key(|r| r.stats.median_ns)
            .ok_or_else(|| format!("this run produced no {group}/{prefix} benchmark"))?;
        let median = worst.stats.median_ns as f64;
        let limit = budget_ns * BUDGET_HEADROOM;
        if median > limit {
            return Err(format!(
                "budget exceeded: {} median {median:.0} ns > {limit:.0} ns ({BUDGET_HEADROOM}x of budgeted {budget_ns:.0} ns)",
                worst.id
            ));
        }
        verdicts.push(format!(
            "budget ok: {} median {median:.0} ns <= {limit:.0} ns ({BUDGET_HEADROOM}x of budgeted {budget_ns:.0} ns)",
            worst.id
        ));
    }
    Ok(verdicts)
}

fn main() {
    let mut mode = Mode::Full;
    let mut out = String::from("target/bench.json");
    let mut budget: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => mode = Mode::Smoke,
            "--out" => match argv.next() {
                Some(path) => out = path,
                None => usage(),
            },
            "--budget" => match argv.next() {
                Some(path) => budget = Some(path),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("bench_json: unknown argument `{other}`");
                usage();
            }
        }
    }

    let report = emitter::run(mode);
    let doc = emitter::to_json(&report);
    let mut body = doc.write_pretty();
    body.push('\n');
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("bench_json: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "bench_json: wrote {} ({} mode, {} benchmarks, {} threads)",
        out,
        report.mode.as_str(),
        report.records.len(),
        report.threads,
    );
    if let Some(path) = budget {
        match check_budget(&report, &path) {
            Ok(lines) => {
                for line in lines {
                    println!("bench_json: {line}");
                }
            }
            Err(e) => {
                eprintln!("bench_json: {e}");
                std::process::exit(1);
            }
        }
    }
}
