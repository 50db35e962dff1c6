//! The fault-case matrix and the deterministic stage runner.
//!
//! A [`FaultCase`] names one degenerate scenario; [`run_case`] pushes it
//! through every pipeline stage under one [`ExecPolicy`] and reports each
//! stage's outcome as a plain text line. The lines mention **what**
//! happened (kept counts, typed error displays, degraded-schema records)
//! but never **how** it executed, so [`run_matrix`] can require the full
//! matrix to be byte-identical across execution policies — the fault
//! paths obey the same determinism contract (DESIGN.md §8) as the happy
//! paths.
//!
//! A stage that *panics* (instead of returning a typed error) produces a
//! `PANIC-ESCAPED:` line. No case may ever emit one; the in-crate tests
//! and the `fault_smoke` binary both fail hard on it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cs_core::pool::{fault, global, ExecPolicy};
use cs_core::{
    CollaborativeScoper, CollaborativeSweep, CombinationRule, GlobalScoper, SchemaSignatures,
    ScopingError,
};
use cs_datasets::synthetic::{
    all_unlinkable, with_duplicate_schema, with_empty_schema, with_singleton_schema,
    SyntheticConfig,
};
use cs_embed::SignatureEncoder;
use cs_linalg::Fnv1a;
use cs_match::{AnnConfig, AnnMatcher, ElementSet, Matcher, SimMatcher};
use cs_oda::ZScoreDetector;

use crate::inject::{flatten_schema, poison_non_finite};

/// The explained variance the strict scoper stage runs at.
const STRICT_V: f64 = 0.85;
/// The grid the sweep stage evaluates.
const GRID: [f64; 3] = [0.9, 0.6, 0.3];
/// The keep fraction of the global-scoping stage.
const GLOBAL_P: f64 = 0.5;
/// The cosine threshold of the matcher stage.
const SIM_T: f64 = 0.6;
/// The neighbor count of the ANN matcher stage.
const ANN_K: usize = 2;

/// How a fault case manufactures its input.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// Run the signature pipeline on a manufactured signature catalog.
    Signatures(SigRecipe),
    /// Healthy catalog, but the pool fault hook panics in chunk 0.
    WorkerPanic,
    /// Healthy catalog driven with out-of-range parameters everywhere.
    InvalidParams,
}

/// A named signature-catalog construction, parameterized by the base
/// [`SyntheticConfig`] so the same 14-case matrix can replay over any
/// generated catalog (the fuzz driver feeds it a knob lattice). Recipes
/// that poison a specific schema index require `config.schemas >= 3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigRecipe {
    /// The healthy catalog as generated.
    Baseline,
    /// Healthy catalog plus an appended zero-element schema.
    EmptySchema,
    /// Healthy catalog plus an appended single-element schema.
    SingletonSchema,
    /// Healthy catalog plus a schema of identical serializations.
    DuplicateSignatures,
    /// The all-private (`linkable_ratio = 0`) variant.
    AllUnlinkable,
    /// Baseline with seeded NaNs planted in schema 1.
    PoisonNan,
    /// Baseline with seeded infinities planted in schema 2.
    PoisonInf,
    /// Baseline with schema 0 flattened to zero variance.
    Flattened,
    /// No schemas at all (config-independent).
    EmptyCatalog,
    /// The gaussian solver-probe catalog with a NaN in schema 1
    /// (config-independent).
    SolverProbePoison,
}

impl SigRecipe {
    /// Materializes the signature catalog this recipe describes on top of
    /// `config`.
    pub fn build(self, config: &SyntheticConfig) -> SchemaSignatures {
        let baseline = || encode(&cs_datasets::synthetic::generate(config));
        match self {
            SigRecipe::Baseline => baseline(),
            SigRecipe::EmptySchema => encode(&with_empty_schema(config)),
            SigRecipe::SingletonSchema => encode(&with_singleton_schema(config)),
            SigRecipe::DuplicateSignatures => encode(&with_duplicate_schema(config, 4)),
            SigRecipe::AllUnlinkable => encode(&all_unlinkable(config)),
            SigRecipe::PoisonNan => poison_non_finite(&baseline(), 1, f64::NAN, 0xBAD),
            SigRecipe::PoisonInf => poison_non_finite(&baseline(), 2, f64::INFINITY, 0xBAD),
            SigRecipe::Flattened => flatten_schema(&baseline(), 0),
            SigRecipe::EmptyCatalog => SchemaSignatures::from_matrices(vec![], vec![]),
            SigRecipe::SolverProbePoison => poisoned_solver_probe(),
        }
    }
}

/// One named scenario plus the substring its report must contain.
#[derive(Debug, Clone, Copy)]
pub struct FaultCase {
    /// Stable case name (sorted output key).
    pub name: &'static str,
    /// Input recipe.
    pub scenario: Scenario,
    /// A substring the joined stage lines must contain ("" = no
    /// constraint beyond determinism and panic-freedom).
    pub expect: &'static str,
}

/// The small synthetic catalog every scenario starts from. Kept tiny so
/// the whole matrix (cases × policies) stays inside the verify smoke
/// budget.
fn base_config() -> SyntheticConfig {
    SyntheticConfig {
        schemas: 3,
        shared_concepts: 12,
        concepts_per_schema: 8,
        private_per_schema: 4,
        table_width: 4,
        alien_elements: 0,
        seed: 0xFA_17,
        ..SyntheticConfig::default()
    }
}

fn encode(ds: &cs_datasets::Dataset) -> SchemaSignatures {
    cs_core::encode_catalog(&SignatureEncoder::default(), &ds.catalog)
}

/// A small gaussian catalog for the solver poison case: enough
/// structure to train, small enough to be instant under every policy.
fn solver_probe_sigs() -> SchemaSignatures {
    use cs_linalg::{Matrix, Xoshiro256};
    let mut rng = Xoshiro256::seed_from(0x501_7E2);
    let mats = vec![
        Matrix::from_fn(8, 12, |_, _| rng.next_gaussian()),
        Matrix::from_fn(9, 12, |_, _| rng.next_gaussian()),
        Matrix::from_fn(7, 12, |_, _| rng.next_gaussian()),
    ];
    SchemaSignatures::from_matrices(mats, vec!["P".into(), "Q".into(), "R".into()])
}

/// The solver-probe catalog with one NaN planted in schema 1: the strict
/// scoper must reject it with a typed error, while the sweep degrades
/// schema 1 and still fits the healthy schemas.
fn poisoned_solver_probe() -> SchemaSignatures {
    poison_non_finite(&solver_probe_sigs(), 1, f64::NAN, 0xBAD)
}

/// The full fault matrix: catalog-level, signature-level, parameter-level
/// and runtime-level faults.
pub fn cases() -> Vec<FaultCase> {
    let case = |name, scenario, expect| FaultCase {
        name,
        scenario,
        expect,
    };
    vec![
        case(
            "baseline",
            Scenario::Signatures(SigRecipe::Baseline),
            "scoper: kept=",
        ),
        case(
            "empty_schema",
            Scenario::Signatures(SigRecipe::EmptySchema),
            "has no elements",
        ),
        case(
            "singleton_schema",
            Scenario::Signatures(SigRecipe::SingletonSchema),
            "too few to train",
        ),
        case(
            "duplicate_signatures",
            Scenario::Signatures(SigRecipe::DuplicateSignatures),
            "rank-deficient",
        ),
        case(
            "all_unlinkable",
            Scenario::Signatures(SigRecipe::AllUnlinkable),
            "scoper: kept=",
        ),
        case(
            "nan_signature",
            Scenario::Signatures(SigRecipe::PoisonNan),
            "NaN/inf entry",
        ),
        case(
            "inf_signature",
            Scenario::Signatures(SigRecipe::PoisonInf),
            "NaN/inf entry",
        ),
        case(
            "flattened_schema",
            Scenario::Signatures(SigRecipe::Flattened),
            "rank-deficient",
        ),
        case(
            "empty_catalog",
            Scenario::Signatures(SigRecipe::EmptyCatalog),
            "needs ≥ 2 schemas",
        ),
        case(
            "worker_panic",
            Scenario::WorkerPanic,
            "injected fault: worker panic",
        ),
        case("invalid_params", Scenario::InvalidParams, "out of range"),
        case(
            "poison_solver_auto",
            Scenario::Signatures(SigRecipe::SolverProbePoison),
            "NaN/inf entry",
        ),
    ]
}

/// Formats a stage outcome; errors render through their pinned `Display`.
fn outcome_line<T: std::fmt::Display>(stage: &str, r: Result<T, ScopingError>) -> String {
    match r {
        Ok(v) => format!("{stage}: {v}"),
        Err(e) => format!("{stage}: error: {e}"),
    }
}

/// Runs `f`, converting an escaped panic into a loud marker line instead
/// of aborting the harness. No public API should ever trip this.
fn guarded(stage: &str, f: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "opaque panic payload".to_string());
        format!("PANIC-ESCAPED: {stage}: {msg}")
    })
}

/// Runs one case on the default [`base_config`] catalog. See
/// [`run_case_on`].
pub fn run_case(case: &FaultCase, exec: &ExecPolicy) -> Vec<String> {
    run_case_on(case, &base_config(), exec)
}

/// Runs one case on a caller-supplied generator config under one
/// execution policy and returns its stage lines. Lines are
/// execution-independent: the same (case, config) must produce the same
/// lines under every policy and worker count. Configs must describe at
/// least three related schemas — the poison recipes target schema
/// indices 1 and 2.
pub fn run_case_on(case: &FaultCase, config: &SyntheticConfig, exec: &ExecPolicy) -> Vec<String> {
    assert!(
        config.schemas >= 3,
        "fault recipes poison schemas #1/#2: need ≥ 3 schemas, got {}",
        config.schemas
    );
    match case.scenario {
        Scenario::Signatures(recipe) => run_signature_case(recipe, config, exec),
        Scenario::WorkerPanic => run_worker_panic_case(config, exec),
        Scenario::InvalidParams => run_invalid_params_case(config, exec),
    }
}

fn run_signature_case(
    recipe: SigRecipe,
    config: &SyntheticConfig,
    exec: &ExecPolicy,
) -> Vec<String> {
    let sigs = recipe.build(config);
    let mut lines = vec![format!(
        "input: schemas={} elements={}",
        sigs.schema_count(),
        sigs.total_len()
    )];

    // Stage 1: strict collaborative scoper — degenerate schemas must be
    // typed errors, healthy catalogs a kept count.
    lines.push(guarded("scoper", || {
        let run = CollaborativeScoper::builder()
            .explained_variance(STRICT_V)
            .exec(exec.clone())
            .build()
            .and_then(|s| s.run(&sigs));
        outcome_line(
            "scoper",
            run.map(|r| format!("kept={}/{}", r.outcome.kept_count(), r.outcome.len())),
        )
    }));

    // Stage 2: the sweep — must degrade gracefully (skip broken schemas,
    // record them, keep assessing) and agree with its own pointwise path.
    lines.push(guarded("sweep", || {
        let sweep = match CollaborativeSweep::prepare_with(&sigs, exec) {
            Ok(s) => s,
            Err(e) => return format!("sweep: error: {e}"),
        };
        let degraded = sweep
            .degraded()
            .iter()
            .map(|d| format!("#{}({})", d.schema, d.error))
            .collect::<Vec<_>>()
            .join(", ");
        let grid = match sweep.assess_grid_with(&GRID, CombinationRule::Any, exec) {
            Ok(g) => g,
            Err(e) => return format!("sweep: grid error: {e}"),
        };
        let mut pointwise_ok = true;
        let kept: Vec<String> = GRID
            .iter()
            .zip(grid.iter())
            .map(|(&v, outcome)| {
                match sweep.assess_at(v) {
                    Ok(p) => pointwise_ok &= p == *outcome,
                    Err(_) => pointwise_ok = false,
                }
                format!("v={v}:{}", outcome.kept_count())
            })
            .collect();
        format!(
            "sweep: [{}] degraded=[{degraded}] grid==pointwise: {pointwise_ok}",
            kept.join(" ")
        )
    }));

    // Stage 3: the global-scoping baseline — rank/sort/filter must not
    // choke on non-finite scores or empty catalogs.
    lines.push(guarded("global", || {
        let scoper = GlobalScoper::new(ZScoreDetector);
        outcome_line(
            "global",
            scoper
                .scope_at(&sigs, GLOBAL_P)
                .map(|o| format!("kept={}/{}", o.kept_count(), o.len())),
        )
    }));

    // Stage 4: a downstream matcher consuming the raw signatures — NaN
    // rows must fail the threshold silently, never crash the matcher.
    lines.push(guarded("matcher", || {
        let sets: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        let pairs = SimMatcher::new(SIM_T).match_pairs(&sets);
        format!("matcher: pairs={}", pairs.len())
    }));

    // Stage 5: the sublinear ANN matcher over the same signatures — the
    // banded index must swallow NaN-poisoned queries, empty/singleton
    // schemas, and zero-variance prefilter fits (the projection degrades
    // to coordinate truncation) without a panic, and its pair count must
    // be execution-independent like every other stage line.
    lines.push(guarded("ann", || {
        let sets: Vec<ElementSet> = (0..sigs.schema_count())
            .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
            .collect();
        let config = AnnConfig {
            k: ANN_K,
            tables: 2,
            band_bits: 4,
            candidate_budget: 8,
            prefilter_dims: 4,
            ..AnnConfig::default()
        };
        let pairs = AnnMatcher::with_config(config)
            .exec(exec.clone())
            .match_pairs(&sets);
        format!("ann: pairs={}", pairs.len())
    }));
    lines
}

fn run_worker_panic_case(config: &SyntheticConfig, exec: &ExecPolicy) -> Vec<String> {
    let sigs = SigRecipe::Baseline.build(config);
    // Target exactly the pool this policy executes on (or, for the
    // sequential path, this caller thread) so concurrent batches on any
    // other pool in the process are untouched.
    let target = match exec {
        ExecPolicy::Sequential => None,
        ExecPolicy::Global => Some(global().tag()),
        ExecPolicy::Pool(pool) => Some(pool.tag()),
    };
    let me = std::thread::current().id();
    let mut lines = Vec::new();
    {
        let _guard = fault::armed(move |site| {
            let mine = match (site.pool, target) {
                (Some(t), Some(want)) => t == want,
                (None, None) => std::thread::current().id() == me,
                _ => false,
            };
            if mine && site.chunk == 0 {
                panic!("injected fault: worker panic");
            }
        });
        lines.push(guarded("scoper", || {
            let run = CollaborativeScoper::builder()
                .explained_variance(STRICT_V)
                .exec(exec.clone())
                .build()
                .and_then(|s| s.run(&sigs));
            outcome_line(
                "scoper",
                run.map(|r| format!("kept={}", r.outcome.kept_count())),
            )
        }));
        lines.push(guarded("sweep", || {
            outcome_line(
                "sweep",
                CollaborativeSweep::prepare_with(&sigs, exec).map(|_| "prepared".to_string()),
            )
        }));
    }
    // Hook disarmed: the same pool must serve the next batch normally.
    lines.push(guarded("recovery", || {
        let run = CollaborativeScoper::builder()
            .explained_variance(STRICT_V)
            .exec(exec.clone())
            .build()
            .and_then(|s| s.run(&sigs));
        outcome_line(
            "recovery",
            run.map(|r| format!("kept={}/{}", r.outcome.kept_count(), r.outcome.len())),
        )
    }));
    lines
}

fn run_invalid_params_case(config: &SyntheticConfig, exec: &ExecPolicy) -> Vec<String> {
    let sigs = SigRecipe::Baseline.build(config);
    let mut lines = Vec::new();
    lines.push(guarded("builder-v0", || {
        outcome_line(
            "builder-v0",
            CollaborativeScoper::builder()
                .explained_variance(0.0)
                .exec(exec.clone())
                .build()
                .map(|_| "built".to_string()),
        )
    }));
    lines.push(guarded("builder-v-nan", || {
        outcome_line(
            "builder-v-nan",
            CollaborativeScoper::builder()
                .explained_variance(f64::NAN)
                .build()
                .map(|_| "built".to_string()),
        )
    }));
    lines.push(guarded("global-p", || {
        outcome_line(
            "global-p",
            GlobalScoper::new(ZScoreDetector)
                .scope_at(&sigs, 1.5)
                .map(|o| format!("kept={}", o.kept_count())),
        )
    }));
    lines.push(guarded("sweep-v", || {
        let sweep = match CollaborativeSweep::prepare_with(&sigs, exec) {
            Ok(s) => s,
            Err(e) => return format!("sweep-v: error: {e}"),
        };
        outcome_line(
            "sweep-v",
            sweep
                .assess_at(0.0)
                .map(|o| format!("kept={}", o.kept_count())),
        )
    }));
    lines.push(guarded("sweep-grid", || {
        let sweep = match CollaborativeSweep::prepare_with(&sigs, exec) {
            Ok(s) => s,
            Err(e) => return format!("sweep-grid: error: {e}"),
        };
        outcome_line(
            "sweep-grid",
            sweep
                .assess_grid_with(&[0.5, f64::INFINITY], CombinationRule::Any, exec)
                .map(|g| format!("points={}", g.len())),
        )
    }));
    lines
}

/// The verified result of a full matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// `(case name, stage lines)` in case order — identical under every
    /// policy by construction (the run fails otherwise).
    pub cases: Vec<(String, Vec<String>)>,
    /// FNV-1a digest over every line, stable across runs, policies, and
    /// `CS_THREADS` settings.
    pub digest: u64,
}

/// Runs the full matrix on the default [`base_config`] catalog. See
/// [`run_matrix_on`].
///
/// # Errors
/// A human-readable description of the first divergence or escaped panic.
pub fn run_matrix(execs: &[(&str, ExecPolicy)]) -> Result<MatrixReport, String> {
    run_matrix_on(&base_config(), execs)
}

/// Runs every fault case on a caller-supplied generator config under
/// every named policy, requiring byte-identical stage lines across
/// policies and zero escaped panics. The `expect` substrings are
/// config-independent (they pin typed-error Displays and stage
/// prefixes), so any valid ≥ 3-schema config must satisfy them.
///
/// # Errors
/// A human-readable description of the first divergence or escaped panic.
pub fn run_matrix_on(
    config: &SyntheticConfig,
    execs: &[(&str, ExecPolicy)],
) -> Result<MatrixReport, String> {
    assert!(!execs.is_empty(), "need at least one execution policy");
    let mut report = Vec::new();
    for case in cases() {
        let (first_name, first_exec) = &execs[0];
        let reference = run_case_on(&case, config, first_exec);
        for line in &reference {
            if line.starts_with("PANIC-ESCAPED") {
                return Err(format!(
                    "case {} under {first_name}: a panic crossed a public API: {line}",
                    case.name
                ));
            }
        }
        let joined = reference.join("\n");
        if !case.expect.is_empty() && !joined.contains(case.expect) {
            return Err(format!(
                "case {}: expected report to contain {:?}, got:\n{joined}",
                case.name, case.expect
            ));
        }
        for (name, exec) in &execs[1..] {
            let got = run_case_on(&case, config, exec);
            if got != reference {
                return Err(format!(
                    "case {} diverges between {first_name} and {name}:\n--- {first_name}\n{}\n--- {name}\n{}",
                    case.name,
                    joined,
                    got.join("\n")
                ));
            }
        }
        report.push((case.name.to_string(), reference));
    }
    let mut digest = Fnv1a::default();
    for (name, lines) in &report {
        for chunk in std::iter::once(name).chain(lines) {
            digest.write(chunk.as_bytes());
        }
    }
    Ok(MatrixReport {
        cases: report,
        digest: digest.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::ThreadPool;
    use std::sync::Arc;

    fn policies() -> Vec<(&'static str, ExecPolicy)> {
        vec![
            ("sequential", ExecPolicy::Sequential),
            (
                "pool1",
                ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(1))),
            ),
            (
                "pool2",
                ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(2))),
            ),
            (
                "pool8",
                ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(8))),
            ),
        ]
    }

    #[test]
    fn matrix_covers_at_least_eight_scenarios() {
        assert!(cases().len() >= 8, "fault matrix shrank: {}", cases().len());
    }

    #[test]
    fn full_matrix_is_policy_invariant_and_panic_free() {
        let report = run_matrix(&policies()).expect("matrix must not diverge");
        assert_eq!(report.cases.len(), cases().len());
        for (name, lines) in &report.cases {
            assert!(
                lines.iter().all(|l| !l.starts_with("PANIC-ESCAPED")),
                "{name}: {lines:?}"
            );
        }
    }

    #[test]
    fn matrix_digest_is_reproducible() {
        let a = run_matrix(&[("seq", ExecPolicy::Sequential)]).expect("run a");
        let b = run_matrix(&[("seq", ExecPolicy::Sequential)]).expect("run b");
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn worker_panic_case_recovers() {
        for (name, exec) in policies() {
            let case = cases()
                .into_iter()
                .find(|c| c.name == "worker_panic")
                .expect("case exists");
            let lines = run_case(&case, &exec);
            let joined = lines.join("\n");
            assert!(
                joined.contains("injected fault: worker panic"),
                "{name}: {joined}"
            );
            assert!(
                lines.iter().any(|l| l.starts_with("recovery: kept=")),
                "{name}: pool did not recover: {joined}"
            );
        }
    }

    #[test]
    fn degenerate_cases_report_typed_errors_not_panics() {
        let exec = ExecPolicy::Sequential;
        for case in cases() {
            let joined = run_case(&case, &exec).join("\n");
            if !case.expect.is_empty() {
                assert!(
                    joined.contains(case.expect),
                    "{}: expected {:?} in:\n{joined}",
                    case.name,
                    case.expect
                );
            }
            assert!(!joined.contains("PANIC-ESCAPED"), "{}: {joined}", case.name);
        }
    }

    #[test]
    fn ann_stage_reports_on_every_signature_case() {
        // The poisoned, empty, singleton, and flattened catalogs all pass
        // through the banded ANN index; each must end in a pair count,
        // never a panic marker.
        let exec = ExecPolicy::Sequential;
        for case in cases() {
            if !matches!(case.scenario, Scenario::Signatures(_)) {
                continue;
            }
            let lines = run_case(&case, &exec);
            let ann = lines
                .iter()
                .find(|l| l.starts_with("ann:"))
                .unwrap_or_else(|| panic!("{}: missing ann stage: {lines:?}", case.name));
            assert!(ann.starts_with("ann: pairs="), "{}: {ann}", case.name);
        }
    }

    #[test]
    fn ann_stage_finds_pairs_on_healthy_catalogs() {
        let case = cases()
            .into_iter()
            .find(|c| c.name == "baseline")
            .expect("case exists");
        let lines = run_case(&case, &ExecPolicy::Sequential);
        let ann = lines.iter().find(|l| l.starts_with("ann:")).unwrap();
        let pairs: usize = ann.trim_start_matches("ann: pairs=").parse().unwrap();
        assert!(pairs > 0, "healthy catalog must yield ANN pairs: {ann}");
    }

    #[test]
    fn graceful_sweep_still_assesses_healthy_schemas() {
        // The duplicate-signature catalog has 3 healthy + 1 degraded
        // schemas; the sweep must keep assessing the healthy ones.
        let case = cases()
            .into_iter()
            .find(|c| c.name == "duplicate_signatures")
            .expect("case exists");
        let joined = run_case(&case, &ExecPolicy::Sequential).join("\n");
        assert!(joined.contains("degraded=[#3"), "{joined}");
        assert!(joined.contains("grid==pointwise: true"), "{joined}");
    }
}
