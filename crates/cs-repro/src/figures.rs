//! Figure 5/6 export: metric curves, ROC/ROC′, and PR series for the
//! best-performing scoping method vs collaborative scoping.

use crate::csv::{fmt_f64, CsvTable};
use crate::experiments::{
    collaborative_curve, dataset_signatures, global_scoping_curve, ScopingMethodResult,
};
use cs_core::CollaborativeSweep;
use cs_datasets::Dataset;
use cs_metrics::SweepCurve;

/// All series of one figure (a–f panels).
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Dataset name.
    pub dataset: String,
    /// Best global scoping method (by AUC-PR) and its sweep.
    pub scoping: ScopingMethodResult,
    /// Collaborative scoping sweep.
    pub collaborative: ScopingMethodResult,
}

/// Computes the figure data for one dataset: the PCA global-scoping
/// variant the paper plots (best of `v ∈ {0.3, 0.5, 0.7}` by AUC-PR)
/// against the collaborative sweep.
pub fn figure_data(dataset: &Dataset, steps: usize) -> FigureData {
    let signatures = dataset_signatures(dataset);
    let labels = dataset.labels();
    let scoping = [0.3, 0.5, 0.7]
        .into_iter()
        .map(|v| {
            let det = cs_oda::PcaDetector::with_variance(v);
            ScopingMethodResult::from_curve(
                format!("Scoping PCA (v={v})"),
                global_scoping_curve(&det, &signatures, &labels, steps),
            )
        })
        .max_by(|a, b| cs_linalg::total_cmp_f64(&a.auc_pr, &b.auc_pr))
        .expect("non-empty roster");
    let sweep = CollaborativeSweep::prepare(&signatures).expect("valid dataset");
    let collaborative = ScopingMethodResult::from_curve(
        "Collaborative PCA",
        collaborative_curve(&sweep, &labels, steps),
    );
    FigureData {
        dataset: dataset.name.clone(),
        scoping,
        collaborative,
    }
}

/// Builds the three CSVs (metrics, roc, pr) for one method's sweep, each
/// paired with its file name under `results/`.
pub fn method_csvs(
    fig: &str,
    method_tag: &str,
    curve: &SweepCurve,
    param_name: &str,
) -> [(String, CsvTable); 3] {
    let mut metrics = CsvTable::new(&[param_name, "accuracy", "precision", "recall", "f1"]);
    for p in curve.points() {
        metrics.push_row(vec![
            fmt_f64(p.param),
            fmt_f64(p.confusion.accuracy()),
            fmt_f64(p.confusion.precision()),
            fmt_f64(p.confusion.recall()),
            fmt_f64(p.confusion.f1()),
        ]);
    }

    let mut roc = CsvTable::new(&["fpr", "tpr"]);
    for pt in curve.roc_points() {
        roc.push_row(vec![fmt_f64(pt.fpr), fmt_f64(pt.tpr)]);
    }

    let mut pr = CsvTable::new(&["recall", "precision"]);
    for (r, p) in curve.pr_points() {
        pr.push_row(vec![fmt_f64(r), fmt_f64(p)]);
    }

    [
        (format!("{fig}_{method_tag}_metrics.csv"), metrics),
        (format!("{fig}_{method_tag}_roc.csv"), roc),
        (format!("{fig}_{method_tag}_pr.csv"), pr),
    ]
}

/// Prints a compact textual rendering of a figure's panels and writes all
/// CSVs; shared by the `fig5` and `fig6` binaries.
pub fn run_figure(fig: &str, dataset: &Dataset, steps: usize) {
    let data = figure_data(dataset, steps);
    println!(
        "{fig} — {}: {} vs Collaborative PCA (grid {steps})\n",
        data.dataset, data.scoping.method
    );
    for (label, res, param) in [
        ("(a,c,e) scoping", &data.scoping, "p"),
        ("(b,d,f) collaborative", &data.collaborative, "v"),
    ] {
        println!(
            "{label}: {} | AUC-F1 {:.2} AUC-ROC {:.2} AUC-ROC' {:.2} AUC-PR {:.2}",
            res.method, res.auc_f1, res.auc_roc, res.auc_roc_smoothed, res.auc_pr
        );
        // Sample a few grid points for the console.
        let pts = res.curve.points();
        let step = (pts.len() / 8).max(1);
        println!("  {param:>6} | acc   | prec  | rec   | f1");
        for p in pts.iter().step_by(step) {
            println!(
                "  {:>6.2} | {:.3} | {:.3} | {:.3} | {:.3}",
                p.param,
                p.confusion.accuracy(),
                p.confusion.precision(),
                p.confusion.recall(),
                p.confusion.f1()
            );
        }
        let tag = if param == "p" {
            "scoping"
        } else {
            "collaborative"
        };
        for (name, table) in method_csvs(fig, tag, &res.curve, param) {
            let path = format!("{}/{name}", crate::RESULTS_DIR);
            table.write_to(&path).expect("write CSVs");
            println!("  written: {path}");
        }
        println!();
    }
}
