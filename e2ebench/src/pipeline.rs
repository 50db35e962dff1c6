//! The workloads and the pipeline pass they repeat.
//!
//! A pass is catalog → signatures → collaborative assessment →
//! streamlined attribute/table sets → matcher(s) → scoring against the
//! ground-truth linkages. Every call into a library crate runs inside a
//! span named `<layer>.<what>`, so the traced run can say which crate the
//! time went to.

use std::collections::HashSet;
use std::sync::OnceLock;

use cs_core::{encode_catalog, CollaborativeScoper, CollaborativeSweep, CombinationRule};
use cs_core::{SchemaSignatures, ScopingError, ScopingOutcome};
use cs_datasets::synthetic::{generate, SyntheticConfig};
use cs_datasets::{Dataset, FORMULA_ONE_DDL, HANA_DDL, MYSQL_DDL, ORACLE_DDL};
use cs_embed::{EncoderConfig, Lexicon, SignatureEncoder};
use cs_linalg::{ExplainedVariance, Matrix, Pca, PcaConfig, PcaSolver};
use cs_match::SimMatcher;
use cs_match::{dedup_pairs, AnnConfig, AnnIndex, AnnMatcher, CandidatePair, ElementSet, Matcher};
use cs_metrics::{match_quality, MatchQuality};
use cs_repro::ablation::split_element_sets;
use cs_repro::experiments::{v_grid, DEFAULT_GRID_STEPS};
use cs_schema::{parse_schema, Catalog};

use crate::catalogs::{respell, shuffle_tables, to_ddl};
use crate::trace::Tracer;

/// The explained variance every workload scopes at.
pub const V: f64 = 0.8;
/// Neighbours per query of the ANN matcher.
const ANN_K: usize = 5;
/// Cosine threshold of the SIM matcher.
const SIM_T: f64 = 0.6;
/// Generator seed of the generated catalogs. It is pinned because the
/// truncated PCA solver's run time depends on the catalog: over generator
/// seeds 1–10, a `gen768` pass takes 2.9–4.4 s. Seed 10 sits at the median
/// of both generated workloads.
pub const CATALOG_SEED: u64 = 10;
/// Below this share of distinct signatures a workload is refused.
const MIN_DISTINCT: f64 = 0.5;

/// The OC3-FO schemas as the `scope` CLI would read them.
const OC3FO_DDL: [(&str, &str); 4] = [
    ("OC-Oracle", ORACLE_DDL),
    ("OC-MySQL", MYSQL_DDL),
    ("OC-HANA", HANA_DDL),
    ("Formula One", FORMULA_ONE_DDL),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's OC3-FO catalog, parsed from DDL in every pass.
    Oc3fo,
    /// 4 generated schemas, ~1.1k elements, 768-d signatures.
    Gen768,
    /// 10 generated schemas, ~11.25k elements, 64-d signatures, scoped
    /// through the v-sweep.
    Sweep10k,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Oc3fo, Kind::Gen768, Kind::Sweep10k];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Oc3fo => "oc3fo",
            Kind::Gen768 => "gen768",
            Kind::Sweep10k => "sweep10k",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The generator's catalog for a generated workload, at the pinned
    /// [`CATALOG_SEED`] and before any adapter.
    ///
    /// # Panics
    /// For `Oc3fo`, which is not generated.
    pub fn generated(self) -> Dataset {
        let (schemas, attrs_per_schema) = match self {
            Kind::Oc3fo => panic!("oc3fo is not a generated workload"),
            Kind::Gen768 => (4, 250),
            Kind::Sweep10k => (10, 1_000),
        };
        generate(&SyntheticConfig {
            schemas,
            shared_concepts: attrs_per_schema,
            concepts_per_schema: attrs_per_schema / 2,
            private_per_schema: attrs_per_schema - attrs_per_schema / 2,
            table_width: 8,
            alien_elements: 0,
            linkable_ratio: Some(0.5),
            seed: CATALOG_SEED,
            ..SyntheticConfig::default()
        })
    }

    /// The catalog a run works on. OC3-FO is fixed; a generated catalog is
    /// respelled so that its signatures are distinct, and `seed` orders
    /// its tables.
    pub fn dataset(self, seed: u64) -> Dataset {
        match self {
            Kind::Oc3fo => cs_datasets::oc3_fo(),
            _ => shuffle_tables(respell(self.generated()), seed),
        }
    }

    /// A fresh encoder: paper width, or 64-d for the 10k sweep.
    pub fn encoder(self) -> SignatureEncoder {
        match self {
            Kind::Sweep10k => SignatureEncoder::new(
                EncoderConfig {
                    dim: 64,
                    ..EncoderConfig::default()
                },
                Lexicon::default_lexicon(),
            ),
            _ => SignatureEncoder::default(),
        }
    }
}

/// Matching quality of one matcher's candidate pairs.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub quality: MatchQuality,
    pub true_positives: usize,
}

/// What one pass produced, plus what the output check compares.
#[derive(Debug, Clone)]
pub struct PassOutput {
    pub elements: usize,
    pub kept: usize,
    pub kept_digest: u64,
    /// Kept count per v-grid point (sweep workload only).
    pub grid_kept: Vec<usize>,
    pub ann_digest: u64,
    pub ann: Scored,
    pub sim_digest: u64,
    pub sim: Option<Scored>,
    pub pass_ops: usize,
    pub signatures: SchemaSignatures,
    pub attr_sets: Vec<ElementSet>,
    pub table_sets: Vec<ElementSet>,
}

impl PassOutput {
    /// True when `other` kept the same elements, produced the same pair
    /// sets and found the same true positives.
    pub fn same_result(&self, other: &PassOutput) -> bool {
        self.kept == other.kept
            && self.kept_digest == other.kept_digest
            && self.grid_kept == other.grid_kept
            && self.ann_digest == other.ann_digest
            && self.ann.true_positives == other.ann.true_positives
            && self.sim_digest == other.sim_digest
            && self.sim.map(|s| s.true_positives) == other.sim.map(|s| s.true_positives)
    }

    pub fn kept_fraction(&self) -> f64 {
        self.kept as f64 / self.elements as f64
    }
}

/// A workload's inputs, built once at set-up.
#[derive(Debug)]
pub struct Workload {
    kind: Kind,
    /// One `CREATE TABLE` script per schema: what every pass starts from.
    ddl: Vec<(String, String)>,
    /// The catalog the scripts describe, and its ground truth.
    truth: Dataset,
}

/// Figures that traced replays observed on a workload whose pass does not
/// make the call itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    pub pass_ops: usize,
    pub grid_points: usize,
    pub sim: Option<Scored>,
}

impl Workload {
    /// Builds the catalog and its DDL, and checks that the DDL reads back
    /// to exactly that catalog.
    pub fn new(kind: Kind, seed: u64) -> Result<Self, String> {
        let truth = kind.dataset(seed);
        let ddl = match kind {
            Kind::Oc3fo => OC3FO_DDL
                .iter()
                .map(|&(name, ddl)| (name.to_string(), ddl.to_string()))
                .collect(),
            _ => truth
                .catalog
                .schemas()
                .iter()
                .map(|s| (s.name.clone(), to_ddl(s)))
                .collect(),
        };
        let workload = Self { kind, ddl, truth };
        if workload.parse()? != workload.truth.catalog {
            return Err("the DDL does not read back to the catalog".into());
        }
        Ok(workload)
    }

    fn parse(&self) -> Result<Catalog, String> {
        let schemas = self
            .ddl
            .iter()
            .map(|(name, ddl)| parse_schema(name, ddl).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Catalog::from_schemas(schemas))
    }

    /// One full pipeline pass.
    pub fn pass(&self, tr: &mut Tracer) -> Result<PassOutput, String> {
        let catalog = tr.span("schema.parse", || self.parse())?;
        let signatures = tr.span("embed.encode", || {
            let encoder = self.kind.encoder();
            encode_catalog(&encoder, &catalog)
        });

        let mut grid_kept = Vec::new();
        let mut pass_ops = 0;
        let outcome: ScopingOutcome = match self.kind {
            Kind::Sweep10k => {
                let sweep = tr
                    .span("sweep.prepare", || prepare(&signatures))
                    .map_err(|e| format!("sweep prepare: {e}"))?;
                let grid = tr
                    .span("sweep.grid", || {
                        sweep.assess_grid(&v_grid(DEFAULT_GRID_STEPS), CombinationRule::Any)
                    })
                    .map_err(|e| format!("sweep grid: {e}"))?;
                grid_kept = grid.iter().map(ScopingOutcome::kept_count).collect();
                tr.span("sweep.assess", || sweep.assess_at(V))
                    .map_err(|e| format!("sweep assess: {e}"))?
            }
            _ => {
                let run = tr
                    .span("core.run", || CollaborativeScoper::new(V).run(&signatures))
                    .map_err(|e| format!("collaborative run: {e}"))?;
                pass_ops = run.cost.pass_operations;
                run.outcome
            }
        };
        // The parsed catalog equals `truth.catalog` (checked at set-up), so
        // the streamlined sets and the scores can use the truth directly.
        let kept = outcome.kept();
        let (attr_sets, table_sets) = tr.span("core.streamline", || {
            split_element_sets(&self.truth, &signatures, Some(&kept))
        });

        let sim_pairs = match self.kind {
            Kind::Sweep10k => None,
            _ => Some(tr.span("match.sim", || {
                match_both(&SimMatcher::new(SIM_T), &attr_sets, &table_sets)
            })),
        };
        let ann_pairs = tr.span("match.ann", || {
            match_both(&AnnMatcher::new(ANN_K), &attr_sets, &table_sets)
        });
        let (ann, sim) = tr.span("metrics.eval", || {
            (
                score(&ann_pairs, &self.truth),
                sim_pairs.as_ref().map(|p| score(p, &self.truth)),
            )
        });

        Ok(PassOutput {
            elements: outcome.len(),
            kept: outcome.kept_count(),
            kept_digest: decisions_digest(&outcome),
            grid_kept,
            ann_digest: pair_digest(&ann_pairs),
            ann,
            sim_digest: sim_pairs.as_deref().map_or(0, pair_digest),
            sim,
            pass_ops,
            signatures,
            attr_sets,
            table_sets,
        })
    }

    /// Replays, traced only, each on the pass's own signatures or
    /// streamlined sets and each under a root span of its own:
    ///
    /// - calls the pass makes inside other calls: local-model training, the
    ///   PCA fits under it, and the ANN index builds;
    /// - calls this workload's pass leaves out, so that every layer has a
    ///   figure on every workload: the one-shot run on `sweep10k` (and its
    ///   SIM matcher when `with_sim`, since SIM is quadratic there), the
    ///   sweep on the others.
    pub fn replay(
        &self,
        out: &PassOutput,
        tr: &mut Tracer,
        with_sim: bool,
    ) -> Result<Replayed, String> {
        let sigs = &out.signatures;
        let mut replayed = Replayed::default();
        if self.kind == Kind::Sweep10k {
            let run = tr
                .span("core.run", || CollaborativeScoper::new(V).run(sigs))
                .map_err(|e| format!("run replay: {e}"))?;
            replayed.pass_ops = run.cost.pass_operations;
            if with_sim {
                let pairs = tr.span("match.sim", || {
                    match_both(&SimMatcher::new(SIM_T), &out.attr_sets, &out.table_sets)
                });
                replayed.sim = Some(score(&pairs, &self.truth));
            }
        } else {
            let sweep = tr
                .span("sweep.prepare", || prepare(sigs))
                .map_err(|e| format!("sweep replay: {e}"))?;
            let grid = tr
                .span("sweep.grid", || {
                    sweep.assess_grid(&v_grid(DEFAULT_GRID_STEPS), CombinationRule::Any)
                })
                .map_err(|e| format!("grid replay: {e}"))?;
            replayed.grid_points = grid.len();
        }
        tr.span("core.train", || {
            CollaborativeScoper::new(V).train_models(sigs)
        })
        .map_err(|e| format!("train replay: {e}"))?;
        let v = ExplainedVariance::new(V).expect("V lies in (0, 1]");
        let config = PcaConfig::new()
            .with_variance(v)
            .with_solver(PcaSolver::Auto);
        tr.span("linalg.pca_fit", || {
            (0..sigs.schema_count())
                .try_for_each(|k| Pca::fit_with(sigs.schema(k), config).map(drop))
        })
        .map_err(|e| format!("PCA replay: {e}"))?;
        for sets in [&out.attr_sets, &out.table_sets] {
            if let Some(rows) = concat_rows(sets) {
                tr.span("match.ann_index", || {
                    AnnIndex::build(rows, AnnConfig::with_k(ANN_K))
                });
            }
        }
        Ok(replayed)
    }

    /// Checks once that `CollaborativeSweep::assess_at(V)` and
    /// `CollaborativeScoper::run` at `V` keep the same elements: the pass
    /// computed one of the two, this computes the other.
    pub fn check_sweep_agrees(&self, reference: &PassOutput) -> Result<(), String> {
        let sigs = &reference.signatures;
        let other = match self.kind {
            Kind::Sweep10k => CollaborativeScoper::new(V).run(sigs).map(|r| r.outcome),
            _ => prepare(sigs).and_then(|s| s.assess_at(V)),
        }
        .map_err(|e| format!("sweep check: {e}"))?;
        if decisions_digest(&other) != reference.kept_digest {
            return Err(format!(
                "sweep and one-shot run disagree at v = {V}: kept {} vs {}",
                other.kept_count(),
                reference.kept
            ));
        }
        Ok(())
    }
}

/// VmHWM rise across the process's first `CollaborativeSweep::prepare`.
static FIRST_PREPARE_HWM_DELTA: OnceLock<f64> = OnceLock::new();

/// `CollaborativeSweep::prepare`, recording the first call's VmHWM rise.
fn prepare(sigs: &SchemaSignatures) -> Result<CollaborativeSweep, ScopingError> {
    if FIRST_PREPARE_HWM_DELTA.get().is_some() {
        return CollaborativeSweep::prepare(sigs);
    }
    let before = vm_hwm_mb();
    let sweep = CollaborativeSweep::prepare(sigs);
    let _ = FIRST_PREPARE_HWM_DELTA.set(vm_hwm_mb() - before);
    sweep
}

/// VmHWM rise, in MB, across the process's first sweep preparation.
pub fn first_prepare_hwm_delta_mb() -> f64 {
    FIRST_PREPARE_HWM_DELTA.get().copied().unwrap_or(0.0)
}

/// Health of a workload: is it worth timing?
#[derive(Debug, Clone, Copy)]
pub struct Health {
    pub distinct_ratio: f64,
    pub kept_fraction: f64,
}

impl Health {
    pub fn of(out: &PassOutput) -> Self {
        Self {
            distinct_ratio: distinct_ratio(&out.signatures),
            kept_fraction: out.kept_fraction(),
        }
    }

    /// Refuses a workload on which scoping keeps all or nothing, or whose
    /// signatures are mostly duplicates.
    pub fn check(&self) -> Result<(), String> {
        if self.kept_fraction <= 0.0 || self.kept_fraction >= 1.0 {
            return Err(format!(
                "scoping keeps {:.3} of the elements at v = {V}",
                self.kept_fraction
            ));
        }
        if self.distinct_ratio < MIN_DISTINCT {
            return Err(format!(
                "only {:.3} of the signatures are distinct",
                self.distinct_ratio
            ));
        }
        Ok(())
    }
}

/// Attribute and table passes of one matcher, unioned.
fn match_both(
    matcher: &dyn Matcher,
    attrs: &[ElementSet],
    tables: &[ElementSet],
) -> Vec<CandidatePair> {
    let mut pairs = matcher.match_pairs(attrs);
    pairs.extend(matcher.match_pairs(tables));
    dedup_pairs(pairs)
}

/// PQ/PC/F1/RR against the original catalog's Cartesian space.
fn score(pairs: &[CandidatePair], dataset: &Dataset) -> Scored {
    let true_positives = pairs
        .iter()
        .filter(|p| dataset.linkages.contains_pair(p.a, p.b))
        .count();
    Scored {
        quality: match_quality(
            pairs.len(),
            true_positives,
            dataset.linkages.len(),
            dataset.catalog.cartesian_element_pairs(),
        ),
        true_positives,
    }
}

/// The rows of every non-empty set, stacked as `AnnMatcher` indexes them.
fn concat_rows(sets: &[ElementSet]) -> Option<Matrix> {
    let nonempty: Vec<&ElementSet> = sets.iter().filter(|s| !s.is_empty()).collect();
    if nonempty.len() < 2 {
        return None;
    }
    let rows: Vec<Vec<f64>> = nonempty
        .iter()
        .flat_map(|s| (0..s.len()).map(|r| s.signatures.row(r).to_vec()))
        .collect();
    Some(Matrix::from_rows(&rows))
}

/// Share of signature rows that are bit-for-bit distinct.
pub fn distinct_ratio(sigs: &SchemaSignatures) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for k in 0..sigs.schema_count() {
        let m = sigs.schema(k);
        for r in 0..m.rows() {
            seen.insert(m.row(r).iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    seen.len() as f64 / total as f64
}

/// FNV-1a over a stream of words.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    cs_embed::hash::fnv1a(&bytes)
}

fn decisions_digest(outcome: &ScopingOutcome) -> u64 {
    digest(outcome.decisions.iter().map(|&d| u64::from(d)))
}

fn pair_digest(pairs: &[CandidatePair]) -> u64 {
    digest(
        pairs
            .iter()
            .flat_map(|p| [p.a.schema, p.a.element, p.b.schema, p.b.element].map(|x| x as u64)),
    )
}

/// The process's peak resident set (VmHWM) in MB; 0 where `/proc` is
/// missing.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oc3fo_pass_keeps_92_of_287() {
        let w = Workload::new(Kind::Oc3fo, 1).unwrap();
        let out = w.pass(&mut Tracer::new(false)).unwrap();
        assert_eq!((out.kept, out.elements), (92, 287));
        assert!(out.same_result(&w.pass(&mut Tracer::new(false)).unwrap()));
        w.check_sweep_agrees(&out).unwrap();
    }

    /// The health gate at the default seed and a second seed. Slow in a
    /// debug build; run with `cargo test --release`.
    #[test]
    fn generated_workloads_are_healthy_at_two_seeds() {
        for kind in [Kind::Gen768, Kind::Sweep10k] {
            for seed in [1, 2] {
                let out = Workload::new(kind, seed)
                    .and_then(|w| w.pass(&mut Tracer::new(false)))
                    .unwrap();
                let health = Health::of(&out);
                health.check().unwrap();
                assert_eq!(health.distinct_ratio, 1.0, "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn health_gate_refuses_degenerate_workloads() {
        let gate = |distinct_ratio, kept_fraction| {
            Health {
                distinct_ratio,
                kept_fraction,
            }
            .check()
        };
        assert!(gate(1.0, 0.5).is_ok());
        assert!(gate(1.0, 1.0).is_err());
        assert!(gate(1.0, 0.0).is_err());
        assert!(gate(0.2, 0.5).is_err());
    }
}
