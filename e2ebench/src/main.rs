//! End-to-end scope→match benchmark.
//!
//! ```text
//! e2ebench --workload oc3fo|gen768|sweep10k --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop: one client, one pass
//! at a time, on the shared thread pool at its configured width. Set-up
//! (catalog construction plus one untimed warm-up pass) is repeated and
//! its median reported; then passes repeat for `--seconds`. Every pass is
//! checked against the warm-up pass. The last stdout line is the result:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exit code 1 when a pass failed, 2 on bad arguments, 3
//! when the workload fails its health gate.

mod catalogs;
mod pipeline;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use pipeline::{
    first_prepare_hwm_delta_mb, vm_hwm_mb, Health, Kind, PassOutput, Replayed, Workload,
};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// OC3-FO's known answer at v = 0.8.
const OC3FO_KEPT: (usize, usize) = (92, 287);
/// Timed per-pass layers, by span name, with the metric each feeds.
const TIMED_LAYERS: [(&str, &str); 11] = [
    ("schema.parse", "schema.parse_s"),
    ("embed.encode", "embed.encode_s"),
    ("core.run", "core.run_s"),
    ("core.train", "core.train_s"),
    ("sweep.prepare", "sweep.prepare_s"),
    ("sweep.grid", "sweep.grid_s"),
    ("linalg.pca_fit", "linalg.pca_fit_s"),
    ("match.ann", "match.ann_s"),
    ("match.sim", "match.sim_s"),
    ("match.ann_index", "match.ann_index_s"),
    ("metrics.eval", "metrics.eval_s"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: e2ebench --workload oc3fo|gen768|sweep10k \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(Refusal::Unhealthy(msg)) => {
            eprintln!("{}: health gate: {msg}", args.kind.name());
            ExitCode::from(3)
        }
        Err(Refusal::Broken(msg)) => {
            eprintln!("{}: {msg}", args.kind.name());
            ExitCode::from(1)
        }
    }
}

enum Refusal {
    Unhealthy(String),
    Broken(String),
}

impl From<String> for Refusal {
    fn from(msg: String) -> Self {
        Refusal::Broken(msg)
    }
}

/// One measured pass.
struct Timed {
    id: usize,
    seconds: f64,
    traced: bool,
    pool_batches: usize,
}

fn run(args: &Args) -> Result<ExitCode, Refusal> {
    let mut tracer = Tracer::new(false);

    // Set-up, repeated: every repetition must reproduce the first.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut prepared: Option<(Workload, PassOutput)> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let workload = Workload::new(args.kind, args.seed)?;
        let warm = workload.pass(&mut tracer)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some((_, reference)) = &prepared {
            if !reference.same_result(&warm) {
                return Err("set-up passes disagree".to_string().into());
            }
        }
        prepared = Some((workload, warm));
    }
    let (workload, reference) = prepared.expect("SETUP_REPS >= 1");

    let health = Health::of(&reference);
    health.check().map_err(Refusal::Unhealthy)?;
    if args.kind == Kind::Oc3fo && (reference.kept, reference.elements) != OC3FO_KEPT {
        return Err(format!(
            "kept {}/{}, expected {}/{}",
            reference.kept, reference.elements, OC3FO_KEPT.0, OC3FO_KEPT.1
        )
        .into());
    }
    workload.check_sweep_agrees(&reference)?;

    // The closed loop. In a traced run, traced and untraced passes
    // alternate so that their difference is the tracing overhead.
    let pool = cs_core::pool::global();
    let mut timed = Vec::new();
    let mut replayed = Replayed::default();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let start = Instant::now();
    // A traced run needs at least one traced and one untraced pass.
    let min_attempts = if args.trace { 2 } else { 1 };
    while start.elapsed().as_secs_f64() < args.seconds || attempted < min_attempts {
        attempted += 1;
        let traced = args.trace && attempted % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_pass(attempted);
        let batches = pool.batches_dispatched();
        let t = Instant::now();
        tracer.begin("pass");
        let result = catch_unwind(AssertUnwindSafe(|| workload.pass(&mut tracer)));
        let seconds = t.elapsed().as_secs_f64();
        // Closes the pass span, and any span a panic left open.
        tracer.close_all();
        let pool_batches = pool.batches_dispatched() - batches;
        match result {
            Ok(Ok(out)) if out.same_result(&reference) => {
                timed.push(Timed {
                    id: attempted,
                    seconds,
                    traced,
                    pool_batches,
                });
                if traced {
                    let with_sim = replayed.sim.is_none();
                    let r = workload.replay(&out, &mut tracer, with_sim)?;
                    replayed = Replayed {
                        sim: replayed.sim.or(r.sim),
                        ..r
                    };
                }
            }
            Ok(Ok(_)) => {
                eprintln!("pass {attempted}: output differs from the warm-up pass");
                failed += 1;
            }
            Ok(Err(e)) => {
                eprintln!("pass {attempted}: {e}");
                failed += 1;
            }
            Err(_) => {
                eprintln!("pass {attempted}: panicked");
                failed += 1;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);

    let untraced: Vec<f64> = timed
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.seconds)
        .collect();
    let (tail, tail_pct) = tail(&untraced);
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"pool_workers\":{},\
         \"nproc\":{},\"cs_threads\":\"{}\",\"commit\":\"{}\",\"setup_reps\":{SETUP_REPS},\
         \"passes\":{},\"untraced_passes\":{},\"tail_percentile\":{tail_pct},\
         \"distinct_ratio\":{},\"kept\":{},\"elements\":{}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool.workers(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("CS_THREADS").unwrap_or_default(),
        commit(),
        timed.len(),
        untraced.len(),
        health.distinct_ratio,
        reference.kept,
        reference.elements,
    );
    println!("{{\"run\":{record}}}");

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layer = layer_medians(&tracer, &timed);
        let traced: Vec<f64> = timed
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.seconds)
            .collect();
        let batches: Vec<f64> = timed.iter().map(|p| p.pool_batches as f64).collect();
        let ann = reference.ann;
        let mut m: Vec<(&str, f64, &str)> = TIMED_LAYERS
            .iter()
            .map(|&(span, metric)| (metric, layer.get(span).copied().unwrap_or(0.0), "s"))
            .collect();
        m.extend([
            ("embed.signatures", reference.elements as f64, "count"),
            ("embed.distinct_ratio", health.distinct_ratio, "ratio"),
            (
                "core.pass_ops",
                reference.pass_ops.max(replayed.pass_ops) as f64,
                "count",
            ),
            ("core.kept_fraction", health.kept_fraction, "ratio"),
            (
                "sweep.points",
                reference.grid_kept.len().max(replayed.grid_points) as f64,
                "count",
            ),
            ("sweep.hwm_delta_mb", first_prepare_hwm_delta_mb(), "MB"),
            ("pool.batches", median(&batches), "count"),
            ("match.pairs", ann.quality.candidates as f64, "count"),
            (
                "match.pairs_per_kept",
                ann.quality.candidates as f64 / reference.kept as f64,
                "ratio",
            ),
            (
                "match.sim_f1",
                reference.sim.or(replayed.sim).map_or(0.0, |s| s.quality.f1),
                "ratio",
            ),
            ("metrics.true_positives", ann.true_positives as f64, "count"),
            ("trace.overhead_s", median(&traced) - median(&untraced), "s"),
            ("failed_ratio", failed as f64 / attempted as f64, "ratio"),
        ]);
        write_trace(args, &record, &tracer);
        m
    } else {
        let elements = reference.elements as f64;
        vec![
            ("pipeline_s", median(&untraced), "s"),
            ("pipeline_tail_s", tail, "s"),
            (
                "elements_per_s",
                elements * timed.len() as f64 / wall,
                "1/s",
            ),
            ("peak_rss_mb", vm_hwm_mb(), "MB"),
            ("setup_s", median(&setup_times), "s"),
            ("f1", reference.ann.quality.f1, "ratio"),
            ("rr", reference.ann.quality.rr, "ratio"),
        ]
    };

    let correct = failed == 0 && !timed.is_empty();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite").into());
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Per timed layer: median, over the traced passes that recorded it, of
/// its summed self time.
fn layer_medians(tracer: &Tracer, timed: &[Timed]) -> BTreeMap<&'static str, f64> {
    let per_pass = tracer.self_times();
    let passes: Vec<&BTreeMap<&str, f64>> = timed
        .iter()
        .filter(|p| p.traced)
        .filter_map(|p| per_pass.get(&p.id))
        .collect();
    TIMED_LAYERS
        .iter()
        .map(|&(span, _)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(span).copied()).collect();
            (span, median(&values))
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, and that
/// percentile. Below twenty samples no percentile at or above the median
/// has ten samples beyond it; the maximum (100) stands in.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, 0.0),
        1..=19 => (v[n - 1], 100.0),
        _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The commit under test: `E2EBENCH_COMMIT`, else `git rev-parse` when
/// the benchmark sits in a git work tree, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("E2EBENCH_COMMIT") {
        return c;
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the run record and every span to `traces/` beside this crate.
fn write_trace(args: &Args, record: &str, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    let body = format!("{{\"run\":{record}}}\n{}", tracer.to_jsonl());
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
