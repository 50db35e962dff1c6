//! The linter linting its own workspace: the shipped tree must be clean.
//!
//! This is the test-suite twin of the `cargo run -p cs-lint` step in
//! `scripts/verify.sh` — a violation introduced anywhere in the workspace
//! fails `cargo test` too, so the gate holds even when someone skips the
//! script.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/cs-lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.lock").is_file(),
        "not a workspace root: {root:?}"
    );

    let report = cs_lint::lint_workspace(root).expect("lint runs");
    let unwaived: Vec<String> = report.unwaived().map(|f| f.render()).collect();
    assert!(
        unwaived.is_empty(),
        "workspace has unwaived lint findings:\n{}",
        unwaived.join("\n")
    );
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The linter's own crate is not exempt: every source file under
/// `crates/cs-lint/src` is run through the rule engine file-by-file and
/// must come back without unwaived findings. This holds even if the
/// workspace walk's scan roots were ever narrowed by mistake.
#[test]
fn linter_lints_itself_clean() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    let mut stack = vec![src_dir.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read src dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = format!(
                    "crates/cs-lint/src/{}",
                    path.strip_prefix(&src_dir).expect("under src").display()
                );
                let text = std::fs::read_to_string(&path).expect("read source");
                let unwaived: Vec<String> = cs_lint::rules::lint_rust_source(&text, &rel)
                    .into_iter()
                    .filter(|f| !f.waived)
                    .map(|f| f.render())
                    .collect();
                assert!(unwaived.is_empty(), "{rel} has findings:\n{unwaived:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 8, "expected all cs-lint modules, saw {checked}");
}

/// The dataflow pass eats its own dog food: the linter's sources — the
/// dataflow module itself included — are fed through the interprocedural
/// determinism-taint analysis as one crate and must produce no unwaived
/// findings. `workspace_is_lint_clean` covers this transitively via
/// `lint_workspace`; this test pins it directly so a regression names the
/// taint pass instead of the whole workspace.
#[test]
fn dataflow_pass_accepts_its_own_module() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut names: Vec<String> = Vec::new();
    let mut sources: Vec<cs_lint::rules::ParsedFile> = Vec::new();
    let mut stack = vec![src_dir.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read src dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = format!(
                    "crates/cs-lint/src/{}",
                    path.strip_prefix(&src_dir).expect("under src").display()
                );
                let text = std::fs::read_to_string(&path).expect("read source");
                sources.push(cs_lint::rules::ParsedFile::parse(&text, &rel));
                names.push(rel);
            }
        }
    }
    assert!(
        names.iter().any(|rel| rel.ends_with("dataflow.rs")),
        "the dataflow module itself must be among the analyzed sources"
    );
    let findings: Vec<String> = cs_lint::dataflow::analyze_workspace(&sources)
        .into_iter()
        .filter(|f| !f.waived)
        .map(|f| f.render())
        .collect();
    assert!(
        findings.is_empty(),
        "the taint pass flags its own crate:\n{}",
        findings.join("\n")
    );
}
