//! The reproduction's shape targets (DESIGN.md §4): the qualitative
//! claims of the paper's evaluation, asserted as tests. Absolute numbers
//! differ from the paper (our encoder is a deterministic substitute for
//! Sentence-BERT); who wins, by what rough factor, and where the
//! crossovers fall must hold.

use collaborative_scoping::core::{CollaborativeSweep, GlobalScoper};
use collaborative_scoping::metrics::{BinaryConfusion, SweepCurve};
use collaborative_scoping::oda::{OutlierDetector, PcaDetector, ZScoreDetector};
use collaborative_scoping::prelude::*;

const GRID: usize = 21;

struct Summary {
    auc_f1: f64,
    auc_roc: f64,
    auc_roc_smoothed: f64,
    auc_pr: f64,
}

fn summarize(curve: &SweepCurve) -> Summary {
    Summary {
        auc_f1: curve.auc_f1(),
        auc_roc: curve.auc_roc(),
        auc_roc_smoothed: curve.auc_roc_smoothed(),
        auc_pr: curve.auc_pr(),
    }
}

fn global_curve(det: &dyn OutlierDetector, sigs: &SchemaSignatures, labels: &[bool]) -> SweepCurve {
    struct W<'a>(&'a dyn OutlierDetector);
    impl OutlierDetector for W<'_> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn score(&self, d: &collaborative_scoping::linalg::Matrix) -> Vec<f64> {
            self.0.score(d)
        }
    }
    let scores = GlobalScoper::new(W(det)).scores(sigs).expect("non-empty");
    let mut curve = SweepCurve::new();
    for i in 0..GRID {
        let p = i as f64 / (GRID - 1) as f64;
        let outcome =
            collaborative_scoping::core::scoping::scope_from_scores("t", sigs, &scores, p);
        curve.push(p, BinaryConfusion::from_labels(&outcome.decisions, labels));
    }
    curve
}

fn collab_curve(sigs: &SchemaSignatures, labels: &[bool]) -> SweepCurve {
    let sweep = CollaborativeSweep::prepare(sigs).expect("valid");
    let mut curve = SweepCurve::new();
    for i in 0..GRID {
        let v = 0.99 - 0.98 * (i as f64 / (GRID - 1) as f64);
        let outcome = sweep.assess_at(v).expect("valid v");
        curve.push(v, BinaryConfusion::from_labels(&outcome.decisions, labels));
    }
    curve
}

fn best_global_pca(sigs: &SchemaSignatures, labels: &[bool]) -> Summary {
    [0.3, 0.5, 0.7]
        .into_iter()
        .map(|v| summarize(&global_curve(&PcaDetector::with_variance(v), sigs, labels)))
        .max_by(|a, b| collaborative_scoping::linalg::total_cmp_f64(&a.auc_pr, &b.auc_pr))
        .expect("non-empty roster")
}

fn prepared(ds: &collaborative_scoping::datasets::Dataset) -> (SchemaSignatures, Vec<bool>) {
    let encoder = SignatureEncoder::default();
    (encode_catalog(&encoder, &ds.catalog), ds.labels())
}

#[test]
fn collaborative_beats_global_on_both_datasets() {
    // Shape target (i): collaborative wins AUC-F1, AUC-ROC', AUC-PR on
    // both datasets, with larger margins on the heterogeneous OC3-FO.
    let (sigs3, labels3) = prepared(&oc3());
    let (sigsfo, labelsfo) = prepared(&oc3_fo());
    let g3 = best_global_pca(&sigs3, &labels3);
    let c3 = summarize(&collab_curve(&sigs3, &labels3));
    let gfo = best_global_pca(&sigsfo, &labelsfo);
    let cfo = summarize(&collab_curve(&sigsfo, &labelsfo));

    assert!(
        c3.auc_f1 > g3.auc_f1,
        "OC3 AUC-F1 {} vs {}",
        c3.auc_f1,
        g3.auc_f1
    );
    assert!(
        c3.auc_pr > g3.auc_pr,
        "OC3 AUC-PR {} vs {}",
        c3.auc_pr,
        g3.auc_pr
    );
    assert!(
        c3.auc_roc_smoothed > g3.auc_roc_smoothed,
        "OC3 AUC-ROC' {} vs {}",
        c3.auc_roc_smoothed,
        g3.auc_roc_smoothed
    );
    assert!(cfo.auc_f1 > gfo.auc_f1, "OC3-FO AUC-F1");
    assert!(cfo.auc_pr > gfo.auc_pr, "OC3-FO AUC-PR");
    assert!(
        cfo.auc_roc_smoothed > gfo.auc_roc_smoothed,
        "OC3-FO AUC-ROC'"
    );
    // Margins grow with heterogeneity.
    assert!(
        cfo.auc_pr - gfo.auc_pr > c3.auc_pr - g3.auc_pr,
        "AUC-PR margin must be larger on OC3-FO"
    );
    assert!(
        cfo.auc_f1 - gfo.auc_f1 > c3.auc_f1 - g3.auc_f1,
        "AUC-F1 margin must be larger on OC3-FO"
    );
}

#[test]
fn plain_auc_roc_penalizes_collaborative() {
    // Shape target (ii): collaborative scoping's FPR never reaches 1, so
    // its plain AUC-ROC is lower than its smoothed AUC-ROC' — the paper's
    // Section 4.2 caveat.
    let (sigs, labels) = prepared(&oc3_fo());
    let c = summarize(&collab_curve(&sigs, &labels));
    assert!(
        c.auc_roc_smoothed > c.auc_roc + 0.1,
        "ROC' {} should clearly exceed plain ROC {}",
        c.auc_roc_smoothed,
        c.auc_roc
    );
}

#[test]
fn global_scoping_collapses_on_heterogeneous_schemas() {
    // Shape target (iii): every global method loses AUC-PR when the
    // Formula-One schema is added; collaborative stays robust.
    let (sigs3, labels3) = prepared(&oc3());
    let (sigsfo, labelsfo) = prepared(&oc3_fo());

    let g3 = best_global_pca(&sigs3, &labels3);
    let gfo = best_global_pca(&sigsfo, &labelsfo);
    let global_drop = g3.auc_pr - gfo.auc_pr;
    assert!(
        global_drop > 0.1,
        "global scoping must degrade: drop {global_drop}"
    );

    let c3 = summarize(&collab_curve(&sigs3, &labels3));
    let cfo = summarize(&collab_curve(&sigsfo, &labelsfo));
    let collab_drop = c3.auc_pr - cfo.auc_pr;
    assert!(
        collab_drop < global_drop * 0.5,
        "collaborative must be robust: drop {collab_drop} vs global {global_drop}"
    );

    // Z-score ends up near (or below) the linkable base rate on OC3-FO.
    let z = summarize(&global_curve(&ZScoreDetector, &sigsfo, &labelsfo));
    let base_rate = labelsfo.iter().filter(|&&l| l).count() as f64 / labelsfo.len() as f64;
    assert!(
        z.auc_pr < base_rate + 0.12,
        "Z-score AUC-PR {} should hover near the {base_rate:.2} base rate",
        z.auc_pr
    );
}

#[test]
fn collaborative_precision_is_high_at_high_variance() {
    // Shape target (v) precursor: for v > 0.8 the kept set is precise —
    // this is what drives the Figure-7 PQ boost.
    let (sigs, labels) = prepared(&oc3_fo());
    let sweep = CollaborativeSweep::prepare(&sigs).expect("valid");
    for v in [0.95, 0.9, 0.85] {
        let outcome = sweep.assess_at(v).expect("valid v");
        let confusion = BinaryConfusion::from_labels(&outcome.decisions, &labels);
        assert!(
            confusion.precision() > 0.6,
            "v={v}: precision {} too low",
            confusion.precision()
        );
    }
    // And it clearly exceeds the 27.5% linkable base rate everywhere above 0.6.
    for v in [0.8, 0.7, 0.65] {
        let outcome = sweep.assess_at(v).expect("valid v");
        let confusion = BinaryConfusion::from_labels(&outcome.decisions, &labels);
        assert!(
            confusion.precision() > 0.5,
            "v={v}: {}",
            confusion.precision()
        );
    }
}

#[test]
fn pass_operations_match_paper_exactly() {
    // §4.4: 320 passes (4.76%) on OC3, 861 (3.78%) on OC3-FO — these are
    // structural counts and must match the paper to the digit.
    let (sigs3, _) = prepared(&oc3());
    let run3 = CollaborativeScoper::new(0.8).run(&sigs3).expect("valid");
    assert_eq!(run3.cost.pass_operations, 320);
    let frac3 = run3
        .cost
        .fraction_of(oc3().catalog.cartesian_element_pairs());
    assert!((frac3 - 0.0476).abs() < 0.0005, "{frac3}");

    let (sigsfo, _) = prepared(&oc3_fo());
    let runfo = CollaborativeScoper::new(0.8).run(&sigsfo).expect("valid");
    assert_eq!(runfo.cost.pass_operations, 861);
    let fracfo = runfo
        .cost
        .fraction_of(oc3_fo().catalog.cartesian_element_pairs());
    assert!((fracfo - 0.0378).abs() < 0.0005, "{fracfo}");
}

#[test]
fn heterogeneity_indices_match_experiments() {
    // Section 2.4's three axes as EXPERIMENTS.md quotes them; the
    // vocabulary sizes pin the shared identifier tokenizer's output on
    // the evaluation schemas.
    use collaborative_scoping::schema::HeterogeneityReport;
    let cases = [
        (oc3(), [0.159, 0.260, 0.841], vec![48, 53, 44]),
        (oc3_fo(), [0.315, 0.253, 0.888], vec![48, 53, 44, 64]),
    ];
    for (ds, indices, vocab) in cases {
        let report = HeterogeneityReport::of(&ds.catalog);
        let got = [report.volume, report.design, report.domain]
            .map(|x| format!("{x:.3}"))
            .to_vec();
        let want: Vec<String> = indices.iter().map(|x| format!("{x:.3}")).collect();
        assert_eq!(got, want, "{} volume/design/domain", ds.name);
        let sizes: Vec<usize> = report.profiles.iter().map(|p| p.vocabulary.len()).collect();
        assert_eq!(sizes, vocab, "{} vocabulary sizes", ds.name);
    }
}
