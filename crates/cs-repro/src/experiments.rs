//! Shared experiment logic: signature encoding, sweep curves, Table 4 rows.

use cs_core::{encode_catalog, CollaborativeSweep, GlobalScoper, SchemaSignatures};
use cs_datasets::Dataset;
use cs_embed::SignatureEncoder;
use cs_metrics::{BinaryConfusion, SweepCurve};
use cs_oda::OutlierDetector;

/// Grid resolution used across experiments (the paper sweeps `p` and `v`
/// over `(0..1)`; 50 points keeps the AUC integrals stable).
pub const DEFAULT_GRID_STEPS: usize = 50;

/// The `v ∈ (1..0)` grid, descending, endpoints pulled just inside the
/// open interval.
pub fn v_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least two grid points");
    (0..steps)
        .map(|i| 0.99 - 0.98 * (i as f64 / (steps - 1) as f64))
        .collect()
}

/// The `p ∈ (0..1)` grid, ascending, inclusive of the endpoints (the paper
/// notes `p = 1` reproduces the originals and `p = 0` empties them).
pub(crate) fn p_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least two grid points");
    (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect()
}

/// Encodes a dataset's catalog with the default encoder (phase I).
pub fn dataset_signatures(dataset: &Dataset) -> SchemaSignatures {
    let encoder = SignatureEncoder::default();
    encode_catalog(&encoder, &dataset.catalog)
}

/// Sweeps global scoping over the `p` grid for one detector: one scoring
/// pass, then thresholding per grid point.
pub(crate) fn global_scoping_curve(
    detector: &dyn OutlierDetector,
    signatures: &SchemaSignatures,
    labels: &[bool],
    steps: usize,
) -> SweepCurve {
    struct Ref<'a>(&'a dyn OutlierDetector);
    impl OutlierDetector for Ref<'_> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn score(&self, data: &cs_linalg::Matrix) -> Vec<f64> {
            self.0.score(data)
        }
    }
    let scoper = GlobalScoper::new(Ref(detector));
    let scores = scoper.scores(signatures).expect("non-empty signatures");
    let mut curve = SweepCurve::new();
    for p in p_grid(steps) {
        let outcome = cs_core::scoping::scope_from_scores(detector.name(), signatures, &scores, p);
        curve.push(p, BinaryConfusion::from_labels(&outcome.decisions, labels));
    }
    curve
}

/// Sweeps collaborative scoping over the `v` grid using the cached
/// projection sweep. The whole grid is assessed in one
/// [`CollaborativeSweep::assess_grid`] batch, which fans the points out
/// over the global thread pool (bit-identical to a sequential loop —
/// DESIGN.md §8).
pub(crate) fn collaborative_curve(
    sweep: &CollaborativeSweep,
    labels: &[bool],
    steps: usize,
) -> SweepCurve {
    let vs = v_grid(steps);
    let outcomes = sweep
        .assess_grid(&vs, cs_core::CombinationRule::Any)
        .expect("v_grid stays inside (0, 1)");
    let mut curve = SweepCurve::new();
    for (&v, outcome) in vs.iter().zip(&outcomes) {
        curve.push(v, BinaryConfusion::from_labels(&outcome.decisions, labels));
    }
    curve
}

/// One Table-4 row: a scoping method's four AUC summaries (×100, as the
/// paper reports them).
#[derive(Debug, Clone)]
pub struct ScopingMethodResult {
    /// Method display name.
    pub method: String,
    /// AUC of F1 over the parameter grid.
    pub auc_f1: f64,
    /// AUC-ROC over the observed FPR range.
    pub auc_roc: f64,
    /// Smoothed/normalized AUC-ROC′.
    pub auc_roc_smoothed: f64,
    /// AUC of the precision-recall curve.
    pub auc_pr: f64,
    /// The underlying sweep (for figure export).
    pub curve: SweepCurve,
}

impl ScopingMethodResult {
    /// Summarizes a sweep curve into the paper's percentage metrics.
    pub(crate) fn from_curve(method: impl Into<String>, curve: SweepCurve) -> Self {
        Self {
            method: method.into(),
            auc_f1: 100.0 * curve.auc_f1(),
            auc_roc: 100.0 * curve.auc_roc(),
            auc_roc_smoothed: 100.0 * curve.auc_roc_smoothed(),
            auc_pr: 100.0 * curve.auc_pr(),
            curve,
        }
    }
}

/// Runs the full Table-4 roster on one dataset. `ae_runs`/`ae_epochs`
/// control the autoencoder ensemble cost (the paper uses 100 × 50; the
/// default harness uses a lighter setting — pass the paper values for the
/// full reproduction).
pub(crate) fn table4_rows(
    dataset: &Dataset,
    steps: usize,
    ae_runs: usize,
    ae_epochs: usize,
) -> Vec<ScopingMethodResult> {
    let signatures = dataset_signatures(dataset);
    let labels = dataset.labels();
    let mut rows = Vec::new();

    // Global scoping baselines.
    let zscore = cs_oda::ZScoreDetector;
    rows.push(ScopingMethodResult::from_curve(
        "Scoping Z-Score",
        global_scoping_curve(&zscore, &signatures, &labels, steps),
    ));
    let lof = cs_oda::LofDetector::default();
    rows.push(ScopingMethodResult::from_curve(
        "Scoping LOF (n=20)",
        global_scoping_curve(&lof, &signatures, &labels, steps),
    ));
    for v in [0.3, 0.5, 0.7] {
        let pca = cs_oda::PcaDetector::with_variance(v);
        rows.push(ScopingMethodResult::from_curve(
            format!("Scoping PCA (v={v})"),
            global_scoping_curve(&pca, &signatures, &labels, steps),
        ));
    }
    if ae_runs > 0 {
        let ae = cs_oda::AutoencoderDetector::fast(ae_runs, ae_epochs);
        rows.push(ScopingMethodResult::from_curve(
            format!("Scoping Autoencoder ({ae_runs}x{ae_epochs})"),
            global_scoping_curve(&ae, &signatures, &labels, steps),
        ));
    }

    // Collaborative scoping.
    let sweep = CollaborativeSweep::prepare(&signatures).expect("valid dataset");
    rows.push(ScopingMethodResult::from_curve(
        "Collaborative PCA",
        collaborative_curve(&sweep, &labels, steps),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_well_formed() {
        let v = v_grid(20);
        assert!(v.windows(2).all(|w| w[0] > w[1]));
        assert!(v.iter().all(|&x| x > 0.0 && x < 1.0));
        let p = p_grid(20);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(p[0], 0.0);
        assert_eq!(p[19], 1.0);
    }

    #[test]
    fn oc3_signature_shape() {
        let ds = cs_datasets::oc3();
        let sigs = dataset_signatures(&ds);
        assert_eq!(sigs.schema_count(), 3);
        assert_eq!(sigs.total_len(), 160);
        assert_eq!(sigs.dim(), 768);
    }

    #[test]
    fn collaborative_beats_global_pca_on_oc3_fo_auc_pr() {
        // The paper's headline: on the heterogeneous scenario,
        // collaborative scoping clearly outperforms the best global
        // baseline on AUC-PR.
        let ds = cs_datasets::oc3_fo();
        let signatures = dataset_signatures(&ds);
        let labels = ds.labels();
        let sweep = CollaborativeSweep::prepare(&signatures).unwrap();
        let collab =
            ScopingMethodResult::from_curve("collab", collaborative_curve(&sweep, &labels, 25));
        let pca = cs_oda::PcaDetector::with_variance(0.5);
        let global = ScopingMethodResult::from_curve(
            "global",
            global_scoping_curve(&pca, &signatures, &labels, 25),
        );
        assert!(
            collab.auc_pr > global.auc_pr,
            "collaborative {:.1} must beat global {:.1}",
            collab.auc_pr,
            global.auc_pr
        );
    }
}
