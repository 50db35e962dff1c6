//! JSON benchmark emitter — the workspace's one bench surface.
//!
//! CI and the paper's efficiency discussion (Table 4, Figure 7, §4.4)
//! want numbers a script can diff. This module runs the scoping /
//! matching / scaling / ann / solver workloads under a configurable
//! [`MeasureConfig`] and serializes one document via the workspace's
//! hermetic [`cs_core::json`] writer; a full-mode run checked in as a
//! baseline is named `BENCH_<BENCH_ID>.json`.
//!
//! Two calibration profiles exist:
//!
//! - [`Mode::Full`] uses bench-grade calibration (5 ms samples, real
//!   OC3 / OC3-FO datasets) and produces the checked-in baselines,
//! - [`Mode::Smoke`] shrinks datasets and sample budgets so the whole
//!   emitter finishes in well under five seconds even in a debug build —
//!   that is what `scripts/verify.sh` and the unit tests run.
//!
//! Timing uses a [`MonotoneTimer`] (readings can never go backwards) and
//! per-sample statistics include a symmetric trimmed mean
//! ([`trimmed_mean_ns`]) so a single scheduler hiccup cannot drag the
//! headline number.

use std::time::{Duration, Instant};

use cs_core::json::JsonValue;
use cs_core::{
    encode_catalog, CollaborativeScoper, CollaborativeSweep, CombinationRule, GlobalScoper,
    SchemaSignatures,
};
use cs_datasets::synthetic::{generate, SyntheticConfig};
use cs_match::{
    AnnConfig, AnnIndex, AnnMatcher, ClusterMatcher, ElementSet, HybridMatcher, LshMatcher,
    Matcher, NamedSet, SimMatcher,
};
use cs_oda::{LofDetector, OutlierDetector, PcaDetector, ZScoreDetector};

/// Version of the emitted document layout.
pub const SCHEMA_VERSION: usize = 1;

/// Sequence number the emitted document carries (`bench_id`).
pub const BENCH_ID: usize = 6;

/// Fraction of samples dropped from *each* end before the trimmed mean.
pub const TRIM_FRACTION: f64 = 0.2;

/// Which calibration profile and datasets to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tiny synthetic datasets, minimal samples; finishes in < 5 s in a
    /// debug build so it can run inside `cargo test -q` and verify.sh.
    Smoke,
    /// Real OC3 / OC3-FO datasets with bench-grade calibration; produces
    /// the checked-in full-mode baselines (run in release).
    Full,
}

impl Mode {
    /// Stable string form used in the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }

    /// Measurement profile for this mode.
    pub fn config(self) -> MeasureConfig {
        match self {
            Mode::Smoke => MeasureConfig::smoke(),
            Mode::Full => MeasureConfig::full(),
        }
    }

    /// Number of explained-variance grid points the sweep bench assesses.
    pub fn sweep_points(self) -> usize {
        match self {
            Mode::Smoke => 5,
            Mode::Full => 50,
        }
    }
}

/// Calibration and sampling parameters for [`measure`].
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Number of measured samples per benchmark.
    pub sample_size: usize,
    /// Minimum wall-clock time one sample should cover; iteration counts
    /// are grown until a sample reaches it.
    pub target_sample: Duration,
    /// Hard cap on iterations per sample.
    pub max_iters: u64,
}

impl MeasureConfig {
    /// Smoke profile: single-digit milliseconds per benchmark.
    pub fn smoke() -> Self {
        Self {
            sample_size: 3,
            target_sample: Duration::from_micros(200),
            max_iters: 8,
        }
    }

    /// Full profile: 15 samples of at least 5 ms each.
    pub fn full() -> Self {
        Self {
            sample_size: 15,
            target_sample: Duration::from_millis(5),
            max_iters: 1 << 20,
        }
    }
}

/// A wall-clock whose readings are non-decreasing by construction.
///
/// `Instant` is already monotonic on every platform Rust supports; this
/// wrapper additionally pins the *sequence* of readings (each reading is
/// clamped to at least the previous one) so downstream subtraction can
/// never underflow, and makes that property directly testable.
#[derive(Debug)]
pub struct MonotoneTimer {
    start: Instant,
    last_ns: u64,
}

impl MonotoneTimer {
    /// Starts the clock at zero.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            last_ns: 0,
        }
    }

    /// Nanoseconds since [`MonotoneTimer::start`]; never less than any
    /// previous reading from the same timer.
    pub fn elapsed_ns(&mut self) -> u64 {
        let now = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_ns = self.last_ns.max(now);
        self.last_ns
    }
}

/// Symmetric trimmed mean: sorts, drops `⌊n·trim⌋` samples from each end
/// (never emptying the slice), and averages the rest. Returns `0.0` for an
/// empty input.
pub fn trimmed_mean_ns(samples: &[u64], trim_fraction: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let requested = (sorted.len() as f64 * trim_fraction.clamp(0.0, 0.5)).floor() as usize;
    let drop = requested.min((sorted.len() - 1) / 2);
    let kept = &sorted[drop..sorted.len() - drop];
    kept.iter().map(|&ns| ns as f64).sum::<f64>() / kept.len() as f64
}

/// Per-benchmark timing statistics, all in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Median per-iteration time across samples.
    pub median_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// [`trimmed_mean_ns`] of the samples at [`TRIM_FRACTION`].
    pub trimmed_mean_ns: f64,
    /// Iterations each sample amortized over.
    pub iters_per_sample: u64,
    /// Number of samples collected.
    pub samples: usize,
}

fn run_batch<O, F: FnMut() -> O>(iters: u64, f: &mut F) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed()
}

/// Calibrates an iteration count against `config.target_sample`, collects
/// `config.sample_size` samples on a [`MonotoneTimer`], and reduces them
/// to [`BenchStats`].
pub fn measure<O, F: FnMut() -> O>(config: &MeasureConfig, mut f: F) -> BenchStats {
    // Calibrate (doubles as warm-up): grow the per-sample iteration count
    // until one sample covers the target, converging via the observed rate.
    let target_ns = config.target_sample.as_nanos() as u64;
    let mut iters: u64 = 1;
    loop {
        let elapsed = run_batch(iters, &mut f);
        if elapsed >= config.target_sample || iters >= config.max_iters {
            break;
        }
        let scaled = if elapsed.is_zero() {
            iters.saturating_mul(16)
        } else {
            (target_ns / (elapsed.as_nanos() as u64).max(1))
                .saturating_add(1)
                .saturating_mul(iters)
        };
        iters = scaled.max(iters * 2).min(config.max_iters);
    }

    let mut timer = MonotoneTimer::start();
    let mut per_iter: Vec<u64> = Vec::with_capacity(config.sample_size);
    for _ in 0..config.sample_size.max(1) {
        let before = timer.elapsed_ns();
        run_batch(iters, &mut f);
        let after = timer.elapsed_ns();
        per_iter.push((after - before) / iters);
    }
    per_iter.sort_unstable();
    BenchStats {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
        trimmed_mean_ns: trimmed_mean_ns(&per_iter, TRIM_FRACTION),
        iters_per_sample: iters,
        samples: per_iter.len(),
    }
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Top-level group: `scoping`, `matching`, `scaling`, or `solver`.
    pub group: &'static str,
    /// Benchmark id, `workload/dataset`-style.
    pub id: String,
    /// Timing statistics.
    pub stats: BenchStats,
}

/// Pass-operation accounting for one dataset (§4.4): every element is
/// reconstructed by each of the `k − 1` foreign models, so collaborative
/// scoping spends exactly `|S| · (k − 1)` encoder–decoder passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetCost {
    /// Dataset display name.
    pub name: String,
    /// Number of schemas `k`.
    pub schemas: usize,
    /// Total element count `|S|` (tables + attributes).
    pub total_elements: usize,
    /// `|S| · (k − 1)`.
    pub pass_operations: usize,
}

/// Computes the §4.4 pass-operation count straight from a catalog.
pub fn dataset_cost(name: &str, ds: &cs_datasets::Dataset) -> DatasetCost {
    let schemas = ds.catalog.schema_count();
    let total_elements = ds.catalog.element_count();
    DatasetCost {
        name: name.to_string(),
        schemas,
        total_elements,
        pass_operations: total_elements * schemas.saturating_sub(1),
    }
}

/// Everything one emitter run produced; serialize with [`to_json`].
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Profile the run used.
    pub mode: Mode,
    /// Worker count of the global thread pool during the run.
    pub threads: usize,
    /// Explained-variance grid size used by the sweep benchmark.
    pub sweep_points: usize,
    /// Per-dataset pass-operation accounting.
    pub datasets: Vec<DatasetCost>,
    /// All measured benchmarks, in emission order.
    pub records: Vec<BenchRecord>,
}

fn smoke_dataset() -> cs_datasets::Dataset {
    generate(&SyntheticConfig {
        schemas: 2,
        shared_concepts: 10,
        concepts_per_schema: 5,
        private_per_schema: 3,
        table_width: 4,
        alien_elements: 2,
        seed: 0xC5,
        ..SyntheticConfig::default()
    })
}

fn mode_datasets(mode: Mode) -> Vec<(String, cs_datasets::Dataset)> {
    match mode {
        Mode::Smoke => vec![("SYN-SMOKE".to_string(), smoke_dataset())],
        Mode::Full => vec![
            ("OC3".to_string(), cs_datasets::oc3()),
            ("OC3-FO".to_string(), cs_datasets::oc3_fo()),
        ],
    }
}

fn encode(ds: &cs_datasets::Dataset) -> SchemaSignatures {
    let encoder = cs_embed::SignatureEncoder::default();
    encode_catalog(&encoder, &ds.catalog)
}

fn synthetic_signatures(schemas: usize, elements_per_schema: usize, seed: u64) -> SchemaSignatures {
    let shared = (elements_per_schema / 2).min(30);
    let ds = generate(&SyntheticConfig {
        schemas,
        shared_concepts: 30,
        concepts_per_schema: shared,
        private_per_schema: elements_per_schema - shared,
        table_width: 8,
        alien_elements: 0,
        seed,
        ..SyntheticConfig::default()
    });
    encode(&ds)
}

fn push<O, F: FnMut() -> O>(
    out: &mut Vec<BenchRecord>,
    cfg: &MeasureConfig,
    group: &'static str,
    id: String,
    f: F,
) {
    let stats = measure(cfg, f);
    out.push(BenchRecord { group, id, stats });
}

fn bench_scoping(
    mode: Mode,
    cfg: &MeasureConfig,
    datasets: &[(String, cs_datasets::Dataset, SchemaSignatures)],
    out: &mut Vec<BenchRecord>,
) {
    for (name, ds, sigs) in datasets {
        push(
            out,
            cfg,
            "scoping",
            format!("encode_catalog/{name}"),
            || encode(ds),
        );
        let unified = sigs.unified();
        push(out, cfg, "scoping", format!("global_zscore/{name}"), || {
            ZScoreDetector.score(&unified)
        });
        push(out, cfg, "scoping", format!("global_lof20/{name}"), || {
            LofDetector::default().score(&unified)
        });
        push(out, cfg, "scoping", format!("global_pca05/{name}"), || {
            PcaDetector::with_variance(0.5).score(&unified)
        });
        push(
            out,
            cfg,
            "scoping",
            format!("collaborative_run_v08/{name}"),
            || CollaborativeScoper::new(0.8).run(sigs).expect("valid run"),
        );
        push(out, cfg, "scoping", format!("sweep_prepare/{name}"), || {
            CollaborativeSweep::prepare(sigs).expect("valid sweep")
        });
        let sweep = CollaborativeSweep::prepare(sigs).expect("valid sweep");
        let vs = crate::variance_grid(mode.sweep_points());
        push(out, cfg, "scoping", format!("sweep_grid/{name}"), || {
            sweep
                .assess_grid(&vs, CombinationRule::Any)
                .expect("valid grid")
        });
    }
}

fn bench_matching(
    cfg: &MeasureConfig,
    datasets: &[(String, cs_datasets::Dataset, SchemaSignatures)],
    out: &mut Vec<BenchRecord>,
) {
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(SimMatcher::new(0.6)),
        Box::new(ClusterMatcher::new(5)),
        Box::new(LshMatcher::new(5)),
    ];
    for (name, _, sigs) in datasets {
        let original: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        let kept = CollaborativeScoper::new(0.75)
            .run(sigs)
            .expect("valid run")
            .outcome
            .kept();
        let streamlined: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::filtered(k, sigs.schema(k), &kept))
            .collect();
        for matcher in &matchers {
            push(
                out,
                cfg,
                "matching",
                format!("{}/original/{name}", matcher.name()),
                || matcher.match_pairs(&original),
            );
            push(
                out,
                cfg,
                "matching",
                format!("{}/streamlined/{name}", matcher.name()),
                || matcher.match_pairs(&streamlined),
            );
        }
        push(
            out,
            cfg,
            "matching",
            format!("preprocess_overhead/{name}"),
            || CollaborativeScoper::new(0.75).run(sigs).expect("valid run"),
        );
    }
}

/// The sublinear retrieval group: seeded LSH index construction, the
/// two-stage (PCA prefilter → exact rerank) query path, and the matcher
/// facades built on it — dense-only [`AnnMatcher`] and the RRF-fused
/// [`HybridMatcher`].
fn bench_ann(
    cfg: &MeasureConfig,
    datasets: &[(String, cs_datasets::Dataset, SchemaSignatures)],
    out: &mut Vec<BenchRecord>,
) {
    let config = AnnConfig::with_k(5);
    for (name, ds, sigs) in datasets {
        let unified = sigs.unified();
        push(out, cfg, "ann", format!("index_build/{name}"), || {
            AnnIndex::build(unified.clone(), config)
        });
        let index = AnnIndex::build(unified.clone(), config);
        push(out, cfg, "ann", format!("search_k5/{name}"), || {
            (0..index.len())
                .map(|q| index.search(index.data().row(q), 5).len())
                .sum::<usize>()
        });

        let sets: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        let ann = AnnMatcher::with_config(config);
        push(
            out,
            cfg,
            "ann",
            format!("{}/original/{name}", ann.name()),
            || ann.match_pairs(&sets),
        );
        let names = (0..ds.catalog.schema_count())
            .map(|k| NamedSet::full(k, ds.catalog.schema(k)))
            .collect();
        let hybrid = HybridMatcher::new(ann, names);
        push(
            out,
            cfg,
            "ann",
            format!("{}/original/{name}", hybrid.name()),
            || hybrid.match_pairs(&sets),
        );
    }
}

/// A generated catalog for the size / unlinkable-ratio sweeps: schema
/// count grows with the target so per-schema size stays bounded, and the
/// linkable-ratio knob pins the unlinkable fraction exactly.
fn scaling_dataset(total_attrs: usize, unlinkable: f64, seed: u64) -> cs_datasets::Dataset {
    let schemas = (total_attrs / 1_000).max(2);
    let per_schema = total_attrs / schemas;
    generate(&SyntheticConfig {
        schemas,
        shared_concepts: per_schema,
        concepts_per_schema: per_schema / 2,
        private_per_schema: per_schema - per_schema / 2,
        table_width: 8,
        alien_elements: 0,
        linkable_ratio: Some(1.0 - unlinkable),
        seed,
        ..SyntheticConfig::default()
    })
}

/// Encodes a sweep catalog at dimension 64 instead of the default 768:
/// the sweeps measure pipeline scaling in element count, and the 100k
/// point at full width would cost ~600 MB of signatures for no extra
/// signal.
fn scaling_encode(ds: &cs_datasets::Dataset) -> SchemaSignatures {
    let encoder = cs_embed::SignatureEncoder::new(
        cs_embed::EncoderConfig {
            dim: 64,
            ..Default::default()
        },
        cs_embed::Lexicon::default_lexicon(),
    );
    encode_catalog(&encoder, &ds.catalog)
}

fn bench_scaling(mode: Mode, cfg: &MeasureConfig, out: &mut Vec<BenchRecord>) {
    let (schemas_fixed, per_schema_steps, total_budget, schema_counts) = match mode {
        Mode::Full => (4usize, vec![25usize, 50, 100], 200usize, vec![2usize, 4, 8]),
        Mode::Smoke => (2, vec![8], 16, vec![2]),
    };
    for per_schema in per_schema_steps {
        let sigs = synthetic_signatures(schemas_fixed, per_schema, 7);
        let total = sigs.total_len();
        push(
            out,
            cfg,
            "scaling",
            format!("total_elements/global_pca/{total}"),
            || {
                GlobalScoper::new(PcaDetector::with_variance(0.5))
                    .scores(&sigs)
                    .expect("valid scores")
            },
        );
        push(
            out,
            cfg,
            "scaling",
            format!("total_elements/global_lof/{total}"),
            || {
                GlobalScoper::new(LofDetector::default())
                    .scores(&sigs)
                    .expect("valid scores")
            },
        );
        push(
            out,
            cfg,
            "scaling",
            format!("total_elements/collaborative/{total}"),
            || CollaborativeScoper::new(0.8).run(&sigs).expect("valid run"),
        );
    }
    for schemas in schema_counts {
        let sigs = synthetic_signatures(schemas, total_budget / schemas, 11);
        push(
            out,
            cfg,
            "scaling",
            format!("schema_count/collaborative/{schemas}"),
            || CollaborativeScoper::new(0.8).run(&sigs).expect("valid run"),
        );
        push(
            out,
            cfg,
            "scaling",
            format!("schema_count/global_pca/{schemas}"),
            || {
                GlobalScoper::new(PcaDetector::with_variance(0.5))
                    .scores(&sigs)
                    .expect("valid scores")
            },
        );
    }

    // Size and unlinkable-ratio sweeps over generated catalogs (ROADMAP
    // item 5): one-shot samples at the big points — a single 100k-element
    // collaborative pass is tens of seconds, calibration loops would take
    // hours. The exhaustive-rerank LSH matcher leg stops at `MATCH_CAP`
    // attributes — it re-ranks per query against every foreign schema,
    // which is quadratic-ish in total elements — while the budgeted ANN
    // matcher covers the full range including the 100k point.
    let (size_totals, ratio_total, ratios, sweep_cfg) = match mode {
        Mode::Full => (
            vec![1_000usize, 10_000, 100_000],
            2_000usize,
            vec![0.25, 0.5, 0.9],
            MeasureConfig {
                sample_size: 3,
                target_sample: Duration::from_millis(1),
                max_iters: 1,
            },
        ),
        Mode::Smoke => (vec![24usize, 48], 24, vec![0.5], *cfg),
    };
    const MATCH_CAP: usize = 10_000;
    for target in size_totals {
        let ds = scaling_dataset(target, 0.5, 0x0005_CA1E);
        let sigs = scaling_encode(&ds);
        let total = sigs.total_len();
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("size/collaborative/{total}"),
            || CollaborativeScoper::new(0.8).run(&sigs).expect("valid run"),
        );
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("size/global_pca/{total}"),
            || {
                GlobalScoper::new(PcaDetector::with_variance(0.5))
                    .scores(&sigs)
                    .expect("valid scores")
            },
        );
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("size/sweep_prepare/{total}"),
            || CollaborativeSweep::prepare(&sigs).expect("valid sweep"),
        );
        let sets: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        if target <= MATCH_CAP {
            push(
                out,
                &sweep_cfg,
                "scaling",
                format!("size/match_lsh/{total}"),
                || LshMatcher::new(5).match_pairs(&sets),
            );
        }
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("size/match_ann/{total}"),
            || AnnMatcher::new(5).match_pairs(&sets),
        );
    }
    for u in ratios {
        let ds = scaling_dataset(ratio_total, u, 0xA1_1E7);
        let sigs = scaling_encode(&ds);
        let tag = format!("u{:02}", (u * 100.0) as u32);
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("unlinkable/collaborative/{tag}"),
            || CollaborativeScoper::new(0.8).run(&sigs).expect("valid run"),
        );
        let sets: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("unlinkable/match_lsh/{tag}"),
            || LshMatcher::new(5).match_pairs(&sets),
        );
        push(
            out,
            &sweep_cfg,
            "scaling",
            format!("unlinkable/match_ann/{tag}"),
            || AnnMatcher::new(5).match_pairs(&sets),
        );
    }
}

/// One consonant–vowel syllable per decimal digit, for [`respell`].
const SYLLABLES: [&str; 10] = ["ZO", "BA", "KE", "DI", "FU", "GA", "HO", "JU", "LE", "MI"];

/// `name` with each digit replaced by a syllable. The generator tells
/// elements apart by numbers, which the encoder drops, so without this
/// most generated signatures collide. This is only the digit rule of
/// e2ebench's catalog adapter, which also suffixes names that collide
/// with SQL constraint words and shuffles table order.
fn respell(name: &str) -> String {
    name.chars()
        .map(|c| match c.to_digit(10) {
            Some(d) => SYLLABLES[d as usize].to_string(),
            None => c.to_string(),
        })
        .collect()
}

/// The signatures of one local schema as the pipeline fits them: the
/// first schema of a generated, respelled 4-schema catalog encoded at
/// paper width (768-d). In full mode the catalog is shaped like the
/// `gen768` end-to-end workload's (250 attributes per schema, linkable
/// ratio 0.5, generator seed 10), so 282 × 768 with the flat spectrum of
/// hashed signatures; it is not byte-identical to that catalog (see
/// [`respell`]). Smoke mode shrinks the schemas.
fn traffic_signatures(mode: Mode) -> cs_linalg::Matrix {
    let attrs = match mode {
        Mode::Full => 250usize,
        Mode::Smoke => 16,
    };
    let ds = generate(&SyntheticConfig {
        schemas: 4,
        shared_concepts: attrs,
        concepts_per_schema: attrs / 2,
        private_per_schema: attrs - attrs / 2,
        table_width: 8,
        alien_elements: 0,
        linkable_ratio: Some(0.5),
        seed: 10,
        ..SyntheticConfig::default()
    });
    let mut schemas = ds.catalog.schemas().to_vec();
    for table in schemas.iter_mut().flat_map(|s| s.tables.iter_mut()) {
        table.name = respell(&table.name);
        for attr in &mut table.attributes {
            attr.name = respell(&attr.name);
        }
    }
    let encoder = cs_embed::SignatureEncoder::default();
    let sigs = encode_catalog(&encoder, &cs_schema::Catalog::from_schemas(schemas));
    sigs.schema(0).clone()
}

/// The PCA fit and the kernels behind it: the exact Gram fit (`Auto`) on
/// one local schema of generated signatures at paper width (the traffic
/// it serves), `Auto` against the full-SVD reference (`FullSvd`) on a
/// low-rank-plus-noise probe with a decaying spectrum, and the kernels
/// alone: the Gram, the encode product `(x − μ) · PCᵀ`, the decode
/// product `Z · PC` (all three the one register-tiled micro-kernel) and
/// the eigensolve. The reference is not timed on the traffic matrix:
/// Jacobi over 768 columns takes seconds per fit.
fn bench_solver(mode: Mode, cfg: &MeasureConfig, out: &mut Vec<BenchRecord>) {
    use cs_linalg::pca::ExplainedVariance;
    use cs_linalg::{kernels, Matrix, Pca, PcaConfig, PcaSolver, Xoshiro256};

    let traffic = traffic_signatures(mode);
    let (tn, td) = traffic.shape();
    let v = ExplainedVariance::new(0.8).expect("valid v");
    let config = PcaConfig::new().with_variance(v);
    push(
        out,
        cfg,
        "solver",
        format!("pca_fit_v08/auto/{tn}x{td}"),
        || Pca::fit_with(&traffic, config).expect("healthy signatures"),
    );
    // The products of a local model at this shape: the Gram its fit
    // eigendecomposes, the encode against its v = 0.8 components, and
    // the decode of those latents.
    let centered = traffic.sub_row_vector(&cs_linalg::stats::column_mean(&traffic));
    push(out, cfg, "solver", format!("gram_rows/{tn}x{td}"), || {
        kernels::gram_rows(&centered)
    });
    let components = Pca::fit_with(&traffic, config)
        .expect("healthy signatures")
        .components()
        .clone();
    let k = components.rows();
    push(
        out,
        cfg,
        "solver",
        format!("matmul_transposed/{tn}x{td}x{k}"),
        || centered.matmul_transposed(&components),
    );
    let latent = centered.matmul_transposed(&components);
    push(out, cfg, "solver", format!("matmul/{tn}x{k}x{td}"), || {
        latent.matmul(&components)
    });
    let gram = kernels::gram_rows(&centered);
    push(
        out,
        cfg,
        "solver",
        format!("symmetric_eigen/{}", gram.rows()),
        || cs_linalg::svd::symmetric_eigen(&gram),
    );

    let (n, d, rank) = match mode {
        Mode::Full => (128usize, 512usize, 16usize),
        Mode::Smoke => (20, 48, 4),
    };
    let mut rng = Xoshiro256::seed_from(0x00BE_5C11);
    let basis = Matrix::from_fn(rank, d, |_, _| rng.next_gaussian());
    let coeff = Matrix::from_fn(n, rank, |_, j| rng.next_gaussian() / (1.0 + j as f64));
    let mut data = coeff.matmul(&basis);
    for x in data.as_mut_slice() {
        *x += rng.next_gaussian() * 1e-3;
    }
    let v = ExplainedVariance::new(0.5).expect("valid v");
    for (label, solver) in [("auto", PcaSolver::Auto), ("fullsvd", PcaSolver::FullSvd)] {
        let config = PcaConfig::new().with_variance(v).with_solver(solver);
        push(
            out,
            cfg,
            "solver",
            format!("pca_fit_v05/{label}/{n}x{d}"),
            || Pca::fit_with(&data, config).expect("healthy probe"),
        );
    }
}

/// Runs every benchmark group under `mode` and returns the report.
pub fn run(mode: Mode) -> BenchReport {
    let cfg = mode.config();
    let datasets: Vec<(String, cs_datasets::Dataset, SchemaSignatures)> = mode_datasets(mode)
        .into_iter()
        .map(|(name, ds)| {
            let sigs = encode(&ds);
            (name, ds, sigs)
        })
        .collect();
    let costs = datasets
        .iter()
        .map(|(name, ds, _)| dataset_cost(name, ds))
        .collect();
    let mut records = Vec::new();
    bench_scoping(mode, &cfg, &datasets, &mut records);
    bench_matching(&cfg, &datasets, &mut records);
    bench_scaling(mode, &cfg, &mut records);
    bench_ann(&cfg, &datasets, &mut records);
    bench_solver(mode, &cfg, &mut records);
    BenchReport {
        mode,
        threads: cs_core::pool::global().workers(),
        sweep_points: mode.sweep_points(),
        datasets: costs,
        records,
    }
}

fn record_json(r: &BenchRecord) -> JsonValue {
    JsonValue::object(vec![
        ("id", JsonValue::String(r.id.clone())),
        ("median_ns", JsonValue::Number(r.stats.median_ns as f64)),
        ("min_ns", JsonValue::Number(r.stats.min_ns as f64)),
        ("max_ns", JsonValue::Number(r.stats.max_ns as f64)),
        (
            "trimmed_mean_ns",
            JsonValue::Number(r.stats.trimmed_mean_ns),
        ),
        (
            "iters_per_sample",
            JsonValue::Number(r.stats.iters_per_sample as f64),
        ),
        ("samples", JsonValue::Number(r.stats.samples as f64)),
    ])
}

/// Serializes a report into the benchmark document model.
pub fn to_json(report: &BenchReport) -> JsonValue {
    let pass_ops: Vec<(&str, JsonValue)> = report
        .datasets
        .iter()
        .map(|c| {
            (
                c.name.as_str(),
                JsonValue::object(vec![
                    ("schemas", JsonValue::Number(c.schemas as f64)),
                    ("total_elements", JsonValue::Number(c.total_elements as f64)),
                    (
                        "pass_operations",
                        JsonValue::Number(c.pass_operations as f64),
                    ),
                ]),
            )
        })
        .collect();
    let groups: Vec<(&str, JsonValue)> = ["scoping", "matching", "scaling", "ann", "solver"]
        .into_iter()
        .map(|g| {
            let items = report
                .records
                .iter()
                .filter(|r| r.group == g)
                .map(record_json)
                .collect();
            (g, JsonValue::Array(items))
        })
        .collect();
    JsonValue::object(vec![
        ("schema_version", JsonValue::Number(SCHEMA_VERSION as f64)),
        ("bench_id", JsonValue::Number(BENCH_ID as f64)),
        ("mode", JsonValue::String(report.mode.as_str().to_string())),
        ("threads", JsonValue::Number(report.threads as f64)),
        (
            "sweep_points",
            JsonValue::Number(report.sweep_points as f64),
        ),
        ("pass_operations", JsonValue::object(pass_ops)),
        ("groups", JsonValue::object(groups)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_symmetric_tails() {
        let samples: Vec<u64> = (1..=10).collect();
        // ⌊10·0.2⌋ = 2 dropped per end → mean of 3..=8.
        assert_eq!(trimmed_mean_ns(&samples, 0.2), 5.5);
    }

    #[test]
    fn trimmed_mean_suppresses_a_single_outlier() {
        let samples = [10, 10, 1000, 10, 10];
        assert_eq!(trimmed_mean_ns(&samples, 0.2), 10.0);
    }

    #[test]
    fn trimmed_mean_degenerate_inputs() {
        assert_eq!(trimmed_mean_ns(&[], 0.2), 0.0);
        assert_eq!(trimmed_mean_ns(&[42], 0.5), 42.0);
        // Never trims a slice down to nothing, even at the 0.5 cap.
        assert_eq!(trimmed_mean_ns(&[4, 8], 0.5), 6.0);
        // Fractions outside [0, 0.5] clamp rather than panic.
        assert_eq!(trimmed_mean_ns(&[4, 8], 7.0), 6.0);
        assert_eq!(trimmed_mean_ns(&[4, 8], -1.0), 6.0);
    }

    #[test]
    fn monotone_timer_readings_never_decrease() {
        let mut timer = MonotoneTimer::start();
        let mut last = 0u64;
        for _ in 0..1_000 {
            let now = timer.elapsed_ns();
            assert!(now >= last, "{now} < {last}");
            last = now;
        }
        assert!(last > 0, "clock should advance over 1000 readings");
    }

    #[test]
    fn measure_produces_ordered_stats() {
        let cfg = MeasureConfig::smoke();
        let stats = measure(&cfg, || (0..100u64).sum::<u64>());
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.trimmed_mean_ns >= stats.min_ns as f64);
        assert!(stats.trimmed_mean_ns <= stats.max_ns as f64);
        assert!(stats.iters_per_sample >= 1);
        assert_eq!(stats.samples, cfg.sample_size);
    }

    #[test]
    fn pass_operations_match_section_4_4_on_real_datasets() {
        // §4.4: OC3 spends 160·2 = 320 passes, OC3-FO 287·3 = 861.
        let oc3 = dataset_cost("OC3", &cs_datasets::oc3());
        assert_eq!((oc3.schemas, oc3.total_elements), (3, 160));
        assert_eq!(oc3.pass_operations, 320);
        let fo = dataset_cost("OC3-FO", &cs_datasets::oc3_fo());
        assert_eq!((fo.schemas, fo.total_elements), (4, 287));
        assert_eq!(fo.pass_operations, 861);
    }

    #[test]
    fn smoke_run_emits_full_schema_in_under_five_seconds() {
        let wall = Instant::now();
        let report = run(Mode::Smoke);
        let doc = to_json(&report);
        let elapsed = wall.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "smoke emitter took {elapsed:?}"
        );

        // The document round-trips through the hermetic JSON parser.
        let parsed = cs_core::json::parse(&doc.write_pretty()).expect("valid JSON");
        assert_eq!(parsed, doc);

        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_usize),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("bench_id").and_then(JsonValue::as_usize),
            Some(BENCH_ID)
        );
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("smoke"));
        assert!(
            doc.get("threads")
                .and_then(JsonValue::as_usize)
                .expect("threads")
                >= 1
        );

        // Pass-operation accounting is present and self-consistent.
        let costs = doc.get("pass_operations").expect("pass_operations");
        let syn = costs.get("SYN-SMOKE").expect("smoke dataset entry");
        let schemas = syn
            .get("schemas")
            .and_then(JsonValue::as_usize)
            .expect("schemas");
        let total = syn
            .get("total_elements")
            .and_then(JsonValue::as_usize)
            .expect("total_elements");
        assert_eq!(
            syn.get("pass_operations").and_then(JsonValue::as_usize),
            Some(total * (schemas - 1))
        );

        // The scaling group carries both sweep families (the budget gate
        // in bench_json keys on these id prefixes).
        let scaling = doc
            .get("groups")
            .and_then(|g| g.get("scaling"))
            .and_then(JsonValue::as_array)
            .expect("scaling group");
        let ids: Vec<&str> = scaling
            .iter()
            .filter_map(|r| r.get("id").and_then(JsonValue::as_str))
            .collect();
        for prefix in [
            "size/collaborative/",
            "size/global_pca/",
            "size/sweep_prepare/",
            "size/match_lsh/",
            "size/match_ann/",
            "unlinkable/collaborative/",
            "unlinkable/match_lsh/",
            "unlinkable/match_ann/",
        ] {
            assert!(
                ids.iter().any(|id| id.starts_with(prefix)),
                "scaling group lacks a {prefix} entry: {ids:?}"
            );
        }

        // The ann group carries the index path and both matcher facades.
        let ann = doc
            .get("groups")
            .and_then(|g| g.get("ann"))
            .and_then(JsonValue::as_array)
            .expect("ann group");
        let ann_ids: Vec<&str> = ann
            .iter()
            .filter_map(|r| r.get("id").and_then(JsonValue::as_str))
            .collect();
        for prefix in ["index_build/", "search_k5/", "ANN(5)/", "HYBRID("] {
            assert!(
                ann_ids.iter().any(|id| id.starts_with(prefix)),
                "ann group lacks a {prefix} entry: {ann_ids:?}"
            );
        }

        // The solver group times the pipeline's own fit shape and the
        // kernels beneath it.
        let solver_ids: Vec<&str> = doc
            .get("groups")
            .and_then(|g| g.get("solver"))
            .and_then(JsonValue::as_array)
            .expect("solver group")
            .iter()
            .filter_map(|r| r.get("id").and_then(JsonValue::as_str))
            .collect();
        for prefix in [
            "pca_fit_v08/auto/",
            "pca_fit_v05/fullsvd/",
            "gram_rows/",
            "matmul_transposed/",
            "matmul/",
            "symmetric_eigen/",
        ] {
            assert!(
                solver_ids.iter().any(|id| id.starts_with(prefix)),
                "solver group lacks a {prefix} entry: {solver_ids:?}"
            );
        }

        // All five groups are present, non-empty, and carry sane stats.
        let groups = doc.get("groups").expect("groups");
        for name in ["scoping", "matching", "scaling", "ann", "solver"] {
            let items = groups
                .get(name)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("group {name}"));
            assert!(!items.is_empty(), "group {name} is empty");
            for item in items {
                assert!(item.get("id").and_then(JsonValue::as_str).is_some());
                let median = item
                    .get("median_ns")
                    .and_then(JsonValue::as_f64)
                    .expect("median_ns");
                let min = item
                    .get("min_ns")
                    .and_then(JsonValue::as_f64)
                    .expect("min_ns");
                let max = item
                    .get("max_ns")
                    .and_then(JsonValue::as_f64)
                    .expect("max_ns");
                assert!(min <= median && median <= max, "unordered stats in {name}");
            }
        }
    }
}
