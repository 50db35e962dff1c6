//! Doc drift: every `BENCH_*.json` baseline and `results/*.csv` golden
//! that README.md or DESIGN.md names must exist in the repository, so the
//! docs never cite a file that was never checked in.

use std::path::Path;

/// Every whitespace/punctuation-delimited path in `text` naming a
/// `BENCH_<id>.json` document or a CSV under a `results/` directory.
/// Globs (`results/*.csv`) break at the `*` and are skipped.
fn cited_paths(text: &str) -> Vec<String> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/');
    text.split(|c: char| !path_char(c))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let name = token.rsplit('/').next().unwrap_or(token);
            let bench = name.starts_with("BENCH_") && name.ends_with(".json");
            let golden = token.contains("results/") && token.ends_with(".csv");
            bench || golden
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn cited_bench_and_results_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        let cited = cited_paths(&text);
        assert!(
            !cited.is_empty(),
            "{doc} cites no baseline or golden at all"
        );
        let missing: Vec<&String> = cited.iter().filter(|p| !root.join(p).is_file()).collect();
        assert!(missing.is_empty(), "{doc} cites missing files: {missing:?}");
    }
}

#[test]
fn scanner_finds_paths_and_skips_globs() {
    let text = "see `BENCH_4.json`, results/table2.csv and results/*.csv; BENCH_3 alone.";
    assert_eq!(
        cited_paths(text),
        vec!["BENCH_4.json".to_string(), "results/table2.csv".to_string()]
    );
}
