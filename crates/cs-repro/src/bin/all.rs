//! Runs every experiment in sequence: Tables 2–4, Figures 5–7, the
//! non-linear extension, the lexical baseline, and the Section 4.4
//! discussion numbers. Pass `--full` for the paper's autoencoder
//! ensemble in Table 4, whose CSV then goes to `target/table4-full/`
//! instead of the golden `results/`.

use std::process::Command;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let binaries: &[(&str, &[&str])] = &[
        ("table2", &[]),
        ("table3", &[]),
        ("table4", if full { &["--full"] } else { &[] }),
        ("fig5", &[]),
        ("fig6", &[]),
        ("fig7", &[]),
        ("extension_nonlinear", &[]),
        ("ablation", &[]),
        ("baseline_lexical", &[]),
        ("discussion", &[]),
        ("scaling_quality", &[]),
        ("ann_quality", &[]),
    ];
    for (bin, args) in binaries {
        println!("==== {bin} {} ====", args.join(" "));
        let status = Command::new(exe_dir.join(bin))
            .args(*args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
        println!();
    }
    println!(
        "all experiments complete; CSVs under {}/",
        cs_repro::RESULTS_DIR
    );
}
