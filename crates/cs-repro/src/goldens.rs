//! Shared golden-table builders.
//!
//! The `table2` / `table3` / `table4` / `fig7` / `extension_nonlinear` /
//! `ablation` / `baseline_lexical` binaries and the golden regression test (`tests/golden.rs`)
//! must produce *byte-identical* CSV — so the table construction lives
//! here, once, and both sides consume it.
//! Each builder returns the [`CsvTable`] destined for `results/` plus the
//! intermediate rows the binaries render on the console.

use crate::ablation::{evaluate_matcher, fig7_ablation, split_element_sets, AblationPoint};
use crate::csv::{fmt_f64, CsvTable};
use crate::experiments::{dataset_signatures, table4_rows, v_grid, ScopingMethodResult};
use cs_core::assess::{assess, LocalAssessor};
use cs_core::{
    encode_catalog_with, CollaborativeScoper, CollaborativeSweep, CombinationRule, ExecPolicy,
    LocalModel, NeuralCollaborativeScoper, SchemaSignatures,
};
use cs_datasets::synthetic::{generate, SyntheticConfig};
use cs_linalg::vecops::{sq_euclidean, total_cmp_f64};
use cs_linalg::Matrix;
use cs_match::lexical::ranked_lexical_pairs;
use cs_match::{
    dedup_pairs, AnnConfig, AnnIndex, AnnSimMatcher, CandidatePair, ElementSet, Matcher, NamedSet,
    SimMatcher,
};
use cs_metrics::{match_quality, BinaryConfusion, MatchQuality, SweepCurve};
use cs_nn::TrainConfig;
use cs_schema::{LinkageKind, SerializeOptions};

/// Table 2: linkable/unlinkable element counts.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Console rows (per-schema labels indented under the totals row).
    pub console_rows: Vec<Vec<String>>,
    /// The `results/table2.csv` content.
    pub csv: CsvTable,
}

/// Builds Table 2 from the OC3 and OC3-FO datasets.
pub fn table2() -> Table2 {
    let mut console_rows = Vec::new();
    let mut csv = CsvTable::new(&["schema", "tables", "attributes", "linkable", "unlinkable"]);

    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let linkable = ds.linkages.linkable_per_schema(&ds.catalog);
        let total_tables: usize = ds.catalog.schemas().iter().map(|s| s.table_count()).sum();
        let total_attrs: usize = ds
            .catalog
            .schemas()
            .iter()
            .map(|s| s.attribute_count())
            .sum();
        let total_linkable: usize = linkable.iter().sum();
        let total_unlinkable = ds.catalog.element_count() - total_linkable;
        let totals = vec![
            ds.name.clone(),
            total_tables.to_string(),
            total_attrs.to_string(),
            total_linkable.to_string(),
            total_unlinkable.to_string(),
        ];
        console_rows.push(totals.clone());
        csv.push_row(totals);
        for (k, schema) in ds.catalog.schemas().iter().enumerate() {
            // Per-schema rows only once (OC3-FO repeats the OC3 schemas).
            if ds.name == "OC3-FO" && k < 3 {
                continue;
            }
            let unlinkable = schema.element_count() - linkable[k];
            let cells = |label: String| {
                vec![
                    label,
                    schema.table_count().to_string(),
                    schema.attribute_count().to_string(),
                    linkable[k].to_string(),
                    unlinkable.to_string(),
                ]
            };
            console_rows.push(cells(format!("  {}", schema.name)));
            csv.push_row(cells(schema.name.clone()));
        }
    }
    Table2 { console_rows, csv }
}

/// Table 3: Cartesian product sizes and annotated linkages. Console rows
/// and CSV rows are identical (pair rows keep their two-space indent).
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows shared by the console rendering and the CSV.
    pub rows: Vec<Vec<String>>,
    /// The `results/table3.csv` content.
    pub csv: CsvTable,
}

/// Builds Table 3 from the OC3 and OC3-FO datasets.
pub fn table3() -> Table3 {
    let ds = cs_datasets::oc3();
    let c = &ds.catalog;
    let mut rows: Vec<Vec<String>> = Vec::new();

    let mut push = |label: String, ct: usize, ca: usize, ii: usize, is: usize| {
        rows.push(vec![
            label,
            ct.to_string(),
            ca.to_string(),
            ii.to_string(),
            is.to_string(),
        ]);
    };

    // Totals row for OC3 (attribute pairs + the 5 sub-typed table pairs).
    push(
        "OC3".into(),
        c.cartesian_table_pairs(),
        c.cartesian_attribute_pairs(),
        ds.linkages.count_kind(LinkageKind::InterIdentical),
        ds.linkages.count_kind(LinkageKind::InterSubTyped),
    );

    let names = ["Oracle", "MySQL", "HANA"];
    for i in 0..3 {
        for j in (i + 1)..3 {
            let si = c.schema(i);
            let sj = c.schema(j);
            let attr_pairs = |kind: LinkageKind| {
                ds.linkages
                    .iter()
                    .filter(|p| {
                        p.kind == kind && p.connects(i, j) && c.element_ref(p.a).is_attribute()
                    })
                    .count()
            };
            push(
                format!("  {}-{}", names[i], names[j]),
                si.table_count() * sj.table_count(),
                si.attribute_count() * sj.attribute_count(),
                attr_pairs(LinkageKind::InterIdentical),
                attr_pairs(LinkageKind::InterSubTyped),
            );
        }
    }

    let fo = cs_datasets::oc3_fo();
    push(
        "OC3-FO".into(),
        fo.catalog.cartesian_table_pairs(),
        fo.catalog.cartesian_attribute_pairs(),
        fo.linkages.count_kind(LinkageKind::InterIdentical),
        fo.linkages.count_kind(LinkageKind::InterSubTyped),
    );

    let mut csv = CsvTable::new(&["schemas", "cartesian_table", "cartesian_attr", "ii", "is"]);
    for row in &rows {
        csv.push_row(row.clone());
    }
    Table3 { rows, csv }
}

/// Table 4: AUC summaries of every scoping method per dataset.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// `(dataset name, method rows)` in emission order.
    pub per_dataset: Vec<(String, Vec<ScopingMethodResult>)>,
    /// The `results/table4.csv` content.
    pub csv: CsvTable,
}

/// Builds Table 4 on both datasets with the given sweep/ensemble budget.
pub fn table4(steps: usize, ae_runs: usize, ae_epochs: usize) -> Table4 {
    let mut per_dataset = Vec::new();
    let mut csv = CsvTable::new(&[
        "dataset",
        "method",
        "auc_f1",
        "auc_roc",
        "auc_roc_smoothed",
        "auc_pr",
    ]);
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let rows = table4_rows(&ds, steps, ae_runs, ae_epochs);
        for r in &rows {
            csv.push_row(vec![
                ds.name.clone(),
                r.method.clone(),
                fmt_f64(r.auc_f1),
                fmt_f64(r.auc_roc),
                fmt_f64(r.auc_roc_smoothed),
                fmt_f64(r.auc_pr),
            ]);
        }
        per_dataset.push((ds.name.clone(), rows));
    }
    Table4 { per_dataset, csv }
}

/// Figure 7: the PQ/PC/F1/RR matcher ablation per dataset.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(dataset name, ablation points)` in emission order.
    pub per_dataset: Vec<(String, Vec<AblationPoint>)>,
    /// The `results/fig7.csv` content.
    pub csv: CsvTable,
}

/// Builds the Figure-7 ablation on both datasets over `steps` grid points.
pub fn fig7(steps: usize) -> Fig7 {
    let mut per_dataset = Vec::new();
    let mut csv = CsvTable::new(&[
        "dataset",
        "matcher",
        "v",
        "pq",
        "pc",
        "f1",
        "rr",
        "candidates",
    ]);
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let points = fig7_ablation(&ds, steps);
        for p in &points {
            csv.push_row(vec![
                ds.name.clone(),
                p.matcher.clone(),
                p.v.map(fmt_f64).unwrap_or_else(|| "SOTA".into()),
                fmt_f64(p.quality.pq),
                fmt_f64(p.quality.pc),
                fmt_f64(p.quality.f1),
                fmt_f64(p.quality.rr),
                p.quality.candidates.to_string(),
            ]);
        }
        per_dataset.push((ds.name.clone(), points));
    }
    Fig7 { per_dataset, csv }
}

/// The non-linear extension (paper §5): collaborative scoping with PCA
/// local models at three explained variances against dense-autoencoder
/// local models at three bottleneck widths.
#[derive(Debug, Clone)]
pub struct ExtensionNonlinear {
    /// `(dataset name, (local-model label, confusion))` in emission order.
    pub per_dataset: Vec<(String, Vec<(String, BinaryConfusion)>)>,
    /// The `results/extension_nonlinear.csv` content.
    pub csv: CsvTable,
}

/// Epochs each autoencoder local model of [`extension_nonlinear`] trains.
pub const EXTENSION_NONLINEAR_EPOCHS: usize = 120;

/// Builds the non-linear extension table on both datasets.
pub fn extension_nonlinear() -> ExtensionNonlinear {
    let mut per_dataset = Vec::new();
    let mut csv = CsvTable::new(&["dataset", "local_model", "precision", "recall", "f1"]);
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let labels = ds.labels();
        let signatures = dataset_signatures(&ds);
        let mut rows = Vec::new();
        // PCA reference points at comparable generalization levels.
        for v in [0.9, 0.7, 0.5] {
            let run = CollaborativeScoper::new(v).run(&signatures).expect("valid");
            let c = BinaryConfusion::from_labels(&run.outcome.decisions, &labels);
            rows.push((format!("PCA v={v}"), c));
        }
        // Autoencoder local models across bottleneck widths.
        for bottleneck in [4usize, 10, 24] {
            let config = TrainConfig {
                hidden: vec![100, bottleneck, 100],
                epochs: EXTENSION_NONLINEAR_EPOCHS,
                batch_size: 32,
                learning_rate: 1e-3,
                seed: 0xAE_2026,
            };
            let run = NeuralCollaborativeScoper::new(config)
                .run(&signatures)
                .expect("valid");
            let c = BinaryConfusion::from_labels(&run.outcome.decisions, &labels);
            rows.push((format!("AE 100|{bottleneck}|100"), c));
        }
        for (model, c) in &rows {
            csv.push_row(vec![
                ds.name.clone(),
                model.clone(),
                fmt_f64(c.precision()),
                fmt_f64(c.recall()),
                fmt_f64(c.f1()),
            ]);
        }
        per_dataset.push((ds.name.clone(), rows));
    }
    ExtensionNonlinear { per_dataset, csv }
}

/// The quality-side design ablations of DESIGN.md §5 per dataset: the
/// local linkability range `l_k` against a relaxed `l_k·(1+ε)`, the
/// combination rule, and the signature composition.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// `(dataset name, (variant label, v-sweep curve))` in emission order.
    pub per_dataset: Vec<(String, Vec<(String, SweepCurve)>)>,
    /// The `results/ablation.csv` content.
    pub csv: CsvTable,
}

/// Grid points every variant of [`ablation`] sweeps.
pub const ABLATION_STEPS: usize = 25;

/// A local model judged against the relaxed range `l_k + l_k·frac`.
#[derive(Clone)]
struct Relaxed {
    model: LocalModel,
    range: f64,
}

impl LocalAssessor for Relaxed {
    fn schema_index(&self) -> usize {
        self.model.schema_index()
    }

    fn linkability_range(&self) -> f64 {
        self.range
    }

    fn reconstruction_errors(&self, foreign: &Matrix) -> Vec<f64> {
        self.model.reconstruction_errors(foreign)
    }
}

/// One ablation variant's curve: one-shot runs over the grid, each
/// model's range relaxed by `epsilon_frac`.
fn ablation_curve(
    signatures: &SchemaSignatures,
    labels: &[bool],
    rule: CombinationRule,
    epsilon_frac: f64,
) -> SweepCurve {
    let mut curve = SweepCurve::new();
    for v in v_grid(ABLATION_STEPS) {
        let models = CollaborativeScoper::new(v)
            .train_models(signatures)
            .expect("valid dataset")
            .into_iter()
            .map(|model| {
                let l = model.linkability_range();
                Relaxed {
                    model,
                    range: l + l * epsilon_frac,
                }
            })
            .collect();
        let run = assess(signatures, models, rule, &ExecPolicy::Global, "ablation")
            .expect("valid dataset");
        curve.push(
            v,
            BinaryConfusion::from_labels(&run.outcome.decisions, labels),
        );
    }
    curve
}

/// Builds the design ablations on both datasets.
pub fn ablation() -> Ablation {
    use CombinationRule::{All, Any, AtLeast};
    let mut per_dataset = Vec::new();
    let mut csv = CsvTable::new(&["dataset", "variant", "auc_f1", "auc_pr", "auc_roc_smoothed"]);
    let encoder = cs_embed::SignatureEncoder::default();
    let no_types = SerializeOptions {
        data_type: false,
        constraint: false,
        ..Default::default()
    };
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let labels = ds.labels();
        let signatures = dataset_signatures(&ds);
        let names_only =
            encode_catalog_with(&encoder, &ds.catalog, &SerializeOptions::names_only());
        let no_types_sigs = encode_catalog_with(&encoder, &ds.catalog, &no_types);
        let variants = [
            ("paper: l_k strict, rule=ANY", &signatures, Any, 0.0),
            ("relaxed l_k +10%", &signatures, Any, 0.10),
            ("relaxed l_k +50%", &signatures, Any, 0.50),
            ("rule=ALL", &signatures, All, 0.0),
            ("rule=AtLeast(2)", &signatures, AtLeast(2), 0.0),
            ("names-only serialization", &names_only, Any, 0.0),
            ("no type/constraint words", &no_types_sigs, Any, 0.0),
        ];
        let mut rows = Vec::new();
        for (name, sigs, rule, epsilon_frac) in variants {
            let curve = ablation_curve(sigs, &labels, rule, epsilon_frac);
            csv.push_row(vec![
                ds.name.clone(),
                name.to_string(),
                fmt_f64(curve.auc_f1()),
                fmt_f64(curve.auc_pr()),
                fmt_f64(curve.auc_roc_smoothed()),
            ]);
            rows.push((name.to_string(), curve));
        }
        per_dataset.push((ds.name.clone(), rows));
    }
    Ablation { per_dataset, csv }
}

/// Section 2.2's related-work baseline per dataset: a token-trigram name
/// matcher against the cosine SIM matcher, each on the original and the
/// streamlined schemas.
#[derive(Debug, Clone)]
pub struct BaselineLexical {
    /// `(dataset name, (matcher label, match quality))` in emission order.
    pub per_dataset: Vec<(String, Vec<(String, MatchQuality)>)>,
    /// The `results/baseline_lexical.csv` content.
    pub csv: CsvTable,
}

/// Jaccard threshold of [`baseline_lexical`]'s name matcher.
const TRIGRAM_THRESHOLD: f64 = 0.5;

/// Collaborative-scoping `v` of [`baseline_lexical`]'s streamlined rows.
const BASELINE_LEXICAL_V: f64 = 0.75;

/// PQ / PC / F1 of a pair list against the dataset's annotated linkages.
fn pair_quality(pairs: Vec<CandidatePair>, ds: &cs_datasets::Dataset) -> MatchQuality {
    let pairs = dedup_pairs(pairs);
    let tp = pairs
        .iter()
        .filter(|p| ds.linkages.contains_pair(p.a, p.b))
        .count();
    match_quality(
        pairs.len(),
        tp,
        ds.linkages.len(),
        ds.catalog.cartesian_element_pairs(),
    )
}

/// Builds the lexical-vs-semantic baseline on both datasets: the
/// token-trigram Jaccard matcher (the hybrid scoper's lexical channel,
/// every pair scoring at least [`TRIGRAM_THRESHOLD`]) and SIM(0.8), on
/// the original schemas and after collaborative streamlining.
pub fn baseline_lexical() -> BaselineLexical {
    let mut per_dataset = Vec::new();
    let mut csv = CsvTable::new(&["dataset", "matcher", "pq", "pc", "f1", "candidates"]);
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        let signatures = dataset_signatures(&ds);
        let kept = CollaborativeScoper::new(BASELINE_LEXICAL_V)
            .run(&signatures)
            .expect("valid dataset")
            .outcome
            .kept();
        let mut rows = Vec::new();
        for (label, keep) in [("original", None), ("streamlined", Some(&kept))] {
            // With k = every element, the trigram index returns each pair
            // sharing a trigram, i.e. every pair with a positive score, so
            // the threshold cut is exact.
            let names: Vec<NamedSet> = (0..ds.catalog.schema_count())
                .map(|k| match keep {
                    Some(set) => NamedSet::filtered(k, ds.catalog.schema(k), set),
                    None => NamedSet::full(k, ds.catalog.schema(k)),
                })
                .collect();
            let lexical = ranked_lexical_pairs(&names, ds.catalog.element_count())
                .into_iter()
                .filter(|&(_, s)| s >= TRIGRAM_THRESHOLD)
                .map(|(p, _)| p)
                .collect();
            rows.push((
                format!("TokenTrigram({TRIGRAM_THRESHOLD}) {label}"),
                pair_quality(lexical, &ds),
            ));
            let sets: Vec<ElementSet> = (0..signatures.schema_count())
                .map(|k| match keep {
                    Some(set) => ElementSet::filtered(k, signatures.schema(k), set),
                    None => ElementSet::full(k, signatures.schema(k).clone()),
                })
                .collect();
            rows.push((
                format!("SIM(0.8) semantic {label}"),
                pair_quality(SimMatcher::new(0.8).match_pairs(&sets), &ds),
            ));
        }
        for (label, q) in &rows {
            csv.push_row(vec![
                ds.name.clone(),
                label.clone(),
                fmt_f64(q.pq),
                fmt_f64(q.pc),
                fmt_f64(q.f1),
                q.candidates.to_string(),
            ]);
        }
        per_dataset.push((ds.name.clone(), rows));
    }
    BaselineLexical { per_dataset, csv }
}

/// One scaling-quality measurement on a generated catalog.
#[derive(Debug, Clone)]
pub struct ScalingQualityPoint {
    /// Total attribute budget of the generated catalog.
    pub total: usize,
    /// Requested unlinkable fraction (`1 − linkable_ratio`).
    pub unlinkable: f64,
    /// `"original"` (SOTA) or `"streamlined"` (post-sweep kept set).
    pub variant: &'static str,
    /// SIM(0.6) match quality at this grid point.
    pub quality: MatchQuality,
}

/// The scaling-quality grid: catalog sizes × unlinkable fractions.
#[derive(Debug, Clone)]
pub struct ScalingQuality {
    /// Measurements in grid order (size-major, variant-minor).
    pub points: Vec<ScalingQualityPoint>,
    /// The `results/scaling_quality.csv` content.
    pub csv: CsvTable,
}

/// The generated catalog behind one scaling-quality grid point: the same
/// shape the `cs-bench` scaling group measures for wall time, so the
/// quality CSV and the timing sweep describe the same family.
fn scaling_quality_dataset(total: usize, unlinkable: f64, seed: u64) -> cs_datasets::Dataset {
    let schemas = (total / 1_000).max(2);
    let per_schema = total / schemas;
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

/// Builds the scaling-quality grid: RR / PQ / F1 of SIM(0.6) on generated
/// catalogs over `totals × unlinkable`, on the original schemas and after
/// collaborative streamlining at `v = 0.8`.
pub fn scaling_quality(totals: &[usize], unlinkable: &[f64]) -> ScalingQuality {
    let mut points = Vec::new();
    let mut csv = CsvTable::new(&[
        "total",
        "unlinkable",
        "variant",
        "pq",
        "pc",
        "f1",
        "rr",
        "candidates",
    ]);
    let matcher = SimMatcher::new(0.6);
    for (ti, &total) in totals.iter().enumerate() {
        for (ui, &u) in unlinkable.iter().enumerate() {
            let seed = 0x0005_CA1E + (ti * unlinkable.len() + ui) as u64;
            let ds = scaling_quality_dataset(total, u, seed);
            let signatures = dataset_signatures(&ds);
            let sweep = CollaborativeSweep::prepare(&signatures).expect("valid sweep");
            let kept = sweep.assess_at(0.8).expect("valid grid point").kept();
            let variants = [
                ("original", split_element_sets(&ds, &signatures, None)),
                (
                    "streamlined",
                    split_element_sets(&ds, &signatures, Some(&kept)),
                ),
            ];
            for (variant, (attr_sets, table_sets)) in variants {
                let quality = evaluate_matcher(&matcher, &attr_sets, &table_sets, &ds);
                csv.push_row(vec![
                    total.to_string(),
                    fmt_f64(u),
                    variant.to_string(),
                    fmt_f64(quality.pq),
                    fmt_f64(quality.pc),
                    fmt_f64(quality.f1),
                    fmt_f64(quality.rr),
                    quality.candidates.to_string(),
                ]);
                points.push(ScalingQualityPoint {
                    total,
                    unlinkable: u,
                    variant,
                    quality,
                });
            }
        }
    }
    ScalingQuality { points, csv }
}

/// The checked-in `results/scaling_quality.csv` grid: catalog sizes and
/// unlinkable fractions small enough to regenerate in the golden test.
pub const SCALING_QUALITY_TOTALS: [usize; 3] = [48, 96, 192];
/// Unlinkable fractions of the checked-in scaling-quality grid.
pub const SCALING_QUALITY_UNLINKABLE: [f64; 3] = [0.2, 0.5, 0.8];

/// Recall cutoff of the ANN quality grid (recall@10).
pub(crate) const ANN_RECALL_AT: usize = 10;
/// The recall@10 floor `ann_gate` enforces at every grid point.
pub const ANN_RECALL_FLOOR: f64 = 0.9;
/// The |ΔF1| ceiling between SIM(0.6) and ANN-SIM(0.6) at every point.
pub const ANN_F1_TOLERANCE: f64 = 0.02;

/// The ANN configuration the quality grid (and gate) measures: the
/// default index tuning with a neighbor count sized for the SIM
/// comparison.
pub(crate) fn ann_quality_config() -> AnnConfig {
    AnnConfig::with_k(16)
}

/// One ANN-quality measurement on a generated catalog.
#[derive(Debug, Clone)]
pub struct AnnQualityPoint {
    /// Total attribute budget of the generated catalog.
    pub total: usize,
    /// Requested unlinkable fraction.
    pub unlinkable: f64,
    /// Mean recall@10 of the ANN index vs the exact cross-schema top-10.
    pub recall: f64,
    /// Exhaustive SIM(0.6) F1 on the original schemas.
    pub sim_f1: f64,
    /// ANN-SIM(0.6) F1 on the same element sets.
    pub ann_sim_f1: f64,
}

impl AnnQualityPoint {
    /// Absolute F1 gap between the exhaustive and the ANN-backed matcher.
    pub fn f1_delta(&self) -> f64 {
        (self.sim_f1 - self.ann_sim_f1).abs()
    }
}

/// The ANN quality grid: recall and F1 parity versus the exact paths.
#[derive(Debug, Clone)]
pub struct AnnQuality {
    /// Measurements in grid order (size-major).
    pub points: Vec<AnnQualityPoint>,
    /// The `results/ann_quality.csv` content.
    pub csv: CsvTable,
}

/// Mean recall@`k` of the two-stage ANN index against an exact
/// cross-schema scan over the same concatenated signatures.
fn ann_recall(sets: &[ElementSet], config: AnnConfig, k: usize) -> f64 {
    let nonempty: Vec<&ElementSet> = sets.iter().filter(|s| !s.is_empty()).collect();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut schema_of = Vec::new();
    for set in &nonempty {
        for r in 0..set.len() {
            rows.push(set.signatures.row(r).to_vec());
            schema_of.push(set.schema);
        }
    }
    if rows.len() < 2 {
        return 1.0;
    }
    let data = cs_linalg::Matrix::from_rows(&rows);
    let index = AnnIndex::build(data.clone(), config);
    let mut recall_sum = 0.0;
    let mut queries = 0usize;
    for q in 0..rows.len() {
        // Exact cross-schema top-k by full-dimension distance.
        let mut exact: Vec<(usize, f64)> = (0..rows.len())
            .filter(|&i| schema_of[i] != schema_of[q])
            .map(|i| (i, sq_euclidean(data.row(q), data.row(i))))
            .collect();
        if exact.is_empty() {
            continue;
        }
        exact.sort_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
        exact.truncate(k);
        let truth: std::collections::BTreeSet<usize> = exact.iter().map(|&(i, _)| i).collect();
        let approx: std::collections::BTreeSet<usize> = index
            .search_filtered(data.row(q), k, |i| schema_of[i] != schema_of[q])
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        recall_sum += truth.intersection(&approx).count() as f64 / truth.len() as f64;
        queries += 1;
    }
    if queries == 0 {
        1.0
    } else {
        recall_sum / queries as f64
    }
}

/// Builds the ANN quality grid on the scaling-quality catalog family:
/// per grid point, mean recall@10 of the ANN index vs the exact
/// cross-schema scan, and F1 of ANN-SIM(0.6) vs exhaustive SIM(0.6) on
/// the original schemas — the two tolerances `ann_gate` enforces.
pub fn ann_quality(totals: &[usize], unlinkable: &[f64]) -> AnnQuality {
    let mut points = Vec::new();
    let mut csv = CsvTable::new(&[
        "total",
        "unlinkable",
        "recall_at_10",
        "sim_f1",
        "ann_sim_f1",
        "f1_delta",
    ]);
    let config = ann_quality_config();
    let exhaustive = SimMatcher::new(0.6);
    let approx = AnnSimMatcher::new(config, 0.6);
    for (ti, &total) in totals.iter().enumerate() {
        for (ui, &u) in unlinkable.iter().enumerate() {
            // Same seeds as the scaling-quality grid: both CSVs describe
            // the same catalogs.
            let seed = 0x0005_CA1E + (ti * unlinkable.len() + ui) as u64;
            let ds = scaling_quality_dataset(total, u, seed);
            let signatures = dataset_signatures(&ds);
            let (attr_sets, table_sets) = split_element_sets(&ds, &signatures, None);
            let recall = ann_recall(&attr_sets, config, ANN_RECALL_AT);
            let sim_f1 = evaluate_matcher(&exhaustive, &attr_sets, &table_sets, &ds).f1;
            let ann_sim_f1 = evaluate_matcher(&approx, &attr_sets, &table_sets, &ds).f1;
            let point = AnnQualityPoint {
                total,
                unlinkable: u,
                recall,
                sim_f1,
                ann_sim_f1,
            };
            csv.push_row(vec![
                total.to_string(),
                fmt_f64(u),
                fmt_f64(point.recall),
                fmt_f64(point.sim_f1),
                fmt_f64(point.ann_sim_f1),
                fmt_f64(point.f1_delta()),
            ]);
            points.push(point);
        }
    }
    AnnQuality { points, csv }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_console_and_csv_agree_up_to_indentation() {
        let t = table2();
        assert_eq!(t.console_rows.len(), t.csv.len());
        // Totals rows appear verbatim; per-schema rows are indented on the
        // console only.
        assert_eq!(t.console_rows[0][0], "OC3");
        assert!(t.console_rows[1][0].starts_with("  "));
    }

    #[test]
    fn scaling_quality_emits_both_variants_per_grid_point() {
        let t = scaling_quality(&[48], &[0.5]);
        assert_eq!(t.points.len(), 2);
        assert_eq!(t.csv.len(), 2);
        assert_eq!(t.points[0].variant, "original");
        assert_eq!(t.points[1].variant, "streamlined");
        for p in &t.points {
            assert!((0.0..=1.0).contains(&p.quality.rr), "rr out of range");
            assert!((0.0..=1.0).contains(&p.quality.f1), "f1 out of range");
        }
    }

    #[test]
    fn ann_quality_meets_gate_tolerances_on_a_small_point() {
        let t = ann_quality(&[48], &[0.5]);
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.csv.len(), 1);
        let p = &t.points[0];
        assert!(
            p.recall >= ANN_RECALL_FLOOR,
            "recall@10 below floor: {}",
            p.recall
        );
        assert!(
            p.f1_delta() <= ANN_F1_TOLERANCE,
            "F1 gap above tolerance: {} vs {}",
            p.sim_f1,
            p.ann_sim_f1
        );
    }

    #[test]
    fn table3_has_totals_pairs_and_fo_rows() {
        let t = table3();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][0], "OC3");
        assert_eq!(t.rows[4][0], "OC3-FO");
        assert!(t.rows[1][0].starts_with("  Oracle-"));
        assert_eq!(t.csv.len(), 5);
    }
}
