//! End-to-end fixture tests: a synthetic workspace is written to a temp
//! directory with one seeded violation per rule, and the linter (library
//! and compiled binary both) must flag each at the right file:line — and
//! must go quiet when the violations carry waiver pragmas.

use std::fs;
use std::path::PathBuf;

use cs_lint::{lint_workspace, rules};

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("cs-lint-fixture-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dirs");
        fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// A minimal clean lockfile so root detection and the lock pass both work.
const CLEAN_LOCK: &str = "version = 3\n\n[[package]]\nname = \"fix\"\nversion = \"0.1.0\"\n";

fn seeded_fixture(tag: &str) -> Fixture {
    let fx = Fixture::new(tag);
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n\n[dependencies]\nserde = \"1.0\"\n",
    );
    fx.write(
        "crates/cs-core/src/bad.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\npub fn g() {\n    panic!(\"boom\");\n}\n",
    );
    fx.write(
        "crates/cs-match/src/bad_sort.rs",
        "pub fn rank(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    );
    fx.write(
        "src/bad_unsafe.rs",
        "pub fn h() -> u8 {\n    let x: u8 = 7;\n    unsafe { *(&x as *const u8) }\n}\n",
    );
    fx.write(
        "crates/cs-core/src/bad_reduce.rs",
        "use std::sync::Mutex;\n\npub struct Acc {\n    pub results: Mutex<Vec<f64>>,\n}\n",
    );
    fx.write(
        "crates/cs-core/src/bad_iter.rs",
        "use std::collections::HashMap;\n\npub fn total(m: &HashMap<String, f64>) -> f64 {\n    m.values().sum()\n}\n",
    );
    fx.write(
        "crates/cs-match/src/bad_env.rs",
        "pub fn knob() -> Option<String> {\n    std::env::var(\"CS_FIXTURE\").ok()\n}\n",
    );
    fx.write(
        "crates/cs-embed/src/bad_locks.rs",
        "use std::sync::Mutex;\n\npub fn both(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let ga = a.lock().expect(\"a\");\n    let gb = b.lock().expect(\"b\");\n    *ga + *gb\n}\n",
    );
    fx.write(
        "crates/cs-core/src/stale.rs",
        "// cs-lint: allow(no-unsafe) -- fixture: the unsafe block was removed\npub fn quiet() -> u8 {\n    1\n}\n",
    );
    fx
}

#[test]
fn each_rule_fires_at_the_seeded_location() {
    let fx = seeded_fixture("seeded");
    // A clock value read in one file (config modules may read the clock)
    // and summed in another file of the same crate.
    fx.write(
        "crates/cs-match/src/config.rs",
        "use std::time::Instant;\n\npub fn jitter() -> f64 {\n    Instant::now().elapsed().as_secs_f64()\n}\n",
    );
    fx.write(
        "crates/cs-match/src/agg.rs",
        "pub fn accumulate(xs: &[f64]) -> f64 {\n    let j = crate::config::jitter();\n    xs.iter().map(|x| x + j).sum()\n}\n",
    );
    fx.write(
        "crates/cs-linalg/src/narrow.rs",
        "pub fn demote(x: f64) -> f32 {\n    x as f32\n}\n",
    );
    fx.write(
        "crates/cs-linalg/src/kernels.rs",
        "pub fn last(v: &[f64], n: usize) -> f64 {\n    v[n - 1]\n}\n",
    );
    let report = lint_workspace(&fx.root).expect("lint runs");
    let hits: Vec<(String, &'static str, u32)> = report
        .unwaived()
        .map(|f| (f.file.clone(), f.rule, f.line))
        .collect();

    let expect = [
        ("Cargo.toml", rules::HERMETIC_DEPS, 6),
        ("crates/cs-core/src/bad.rs", rules::NO_UNWRAP_IN_LIB, 2),
        ("crates/cs-core/src/bad.rs", rules::PANIC_FREE_CORE, 5),
        (
            "crates/cs-match/src/bad_sort.rs",
            rules::NO_FLOAT_SORT_UNWRAP,
            2,
        ),
        ("src/bad_unsafe.rs", rules::NO_UNSAFE, 3),
        (
            "crates/cs-core/src/bad_reduce.rs",
            rules::NO_ARRIVAL_ORDER_REDUCE,
            4,
        ),
        (
            "crates/cs-core/src/bad_iter.rs",
            rules::NO_UNORDERED_ITERATION,
            4,
        ),
        (
            "crates/cs-match/src/bad_env.rs",
            rules::NO_AMBIENT_AUTHORITY,
            2,
        ),
        (
            "crates/cs-embed/src/bad_locks.rs",
            rules::LOCK_DISCIPLINE,
            5,
        ),
        ("crates/cs-core/src/stale.rs", rules::STALE_WAIVER, 1),
        ("crates/cs-match/src/agg.rs", rules::DETERMINISM_TAINT, 3),
        (
            "crates/cs-linalg/src/narrow.rs",
            rules::NO_LOSSY_CAST_IN_HOT_PATH,
            2,
        ),
        (
            "crates/cs-linalg/src/kernels.rs",
            rules::NO_UNCHECKED_INDEX_ARITH,
            2,
        ),
    ];
    for rule in rules::ALL_RULES {
        assert!(
            expect.iter().any(|(_, r, _)| *r == rule),
            "rule {rule} has no seeded violation"
        );
    }
    for (file, rule, line) in expect {
        assert!(
            hits.iter()
                .any(|(f, r, l)| f == file && *r == rule && *l == line),
            "expected {rule} at {file}:{line}; got {hits:?}"
        );
    }
    assert_eq!(
        hits.len(),
        expect.len(),
        "unexpected extra findings: {hits:?}"
    );
    let taint = report
        .unwaived()
        .find(|f| f.rule == rules::DETERMINISM_TAINT)
        .expect("taint finding");
    assert!(
        taint.message.contains("jitter -> accumulate")
            && taint.message.contains("crates/cs-match/src/config.rs:4"),
        "{}",
        taint.message
    );
    let warnings: Vec<_> = report
        .unwaived()
        .filter(|f| f.severity() == rules::Severity::Warning)
        .map(|f| f.rule)
        .collect();
    assert_eq!(warnings, vec![rules::NO_LOSSY_CAST_IN_HOT_PATH]);
}

#[test]
fn poisoned_lockfile_fires() {
    let fx = Fixture::new("lock");
    fx.write(
        "Cargo.lock",
        "version = 3\n\n[[package]]\nname = \"serde\"\nversion = \"1.0.200\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n",
    );
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n",
    );
    let report = lint_workspace(&fx.root).expect("lint runs");
    let lock_findings: Vec<_> = report
        .unwaived()
        .filter(|f| f.file == "Cargo.lock" && f.rule == rules::HERMETIC_DEPS)
        .collect();
    assert_eq!(lock_findings.len(), 1);
    assert_eq!(lock_findings[0].line, 6);
    assert!(lock_findings[0].message.contains("serde"));
}

#[test]
fn waived_fixture_is_clean() {
    let fx = Fixture::new("waived");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n\n[dependencies]\n# cs-lint: allow(hermetic-deps) -- fixture: exercising the waiver path\nserde = \"1.0\"\n",
    );
    fx.write(
        "crates/cs-core/src/waived.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    // cs-lint: allow(no-unwrap-in-lib) -- invariant: caller checked is_some\n    x.unwrap()\n}\n",
    );
    let report = lint_workspace(&fx.root).expect("lint runs");
    let unwaived: Vec<_> = report.unwaived().map(|f| f.render()).collect();
    assert!(unwaived.is_empty(), "expected clean, got {unwaived:?}");
    // The waived findings are still recorded for the JSON report.
    assert_eq!(report.findings.iter().filter(|f| f.waived).count(), 2);
}

#[test]
fn test_code_is_exempt_from_hygiene_but_not_unsafe() {
    let fx = Fixture::new("exempt");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n",
    );
    fx.write(
        "crates/cs-core/src/lib.rs",
        "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        std::panic::catch_unwind(|| panic!(\"fine in tests\")).ok();\n    }\n}\n",
    );
    fx.write(
        "tests/integration.rs",
        "fn naive(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
    );
    fx.write(
        "crates/cs-core/tests/bad_unsafe.rs",
        "pub fn h(x: &u8) -> u8 { unsafe { *(x as *const u8) } }\n",
    );
    let report = lint_workspace(&fx.root).expect("lint runs");
    let rules_hit: Vec<&str> = report.unwaived().map(|f| f.rule).collect();
    assert_eq!(rules_hit, vec![rules::NO_UNSAFE]);
}

#[test]
fn binary_exits_nonzero_on_seeded_violation_and_writes_report() {
    let fx = seeded_fixture("binary");
    let report_path = fx.root.join("lint-report.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-lint"))
        .args(["--root"])
        .arg(&fx.root)
        .arg("--report")
        .arg(&report_path)
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "expected nonzero exit, got {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/cs-core/src/bad.rs:2: [no-unwrap-in-lib]"),
        "diagnostic missing file:line, got:\n{stdout}"
    );

    let doc = cs_core::json::parse(&fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses");
    assert_eq!(
        doc.get("clean"),
        Some(&cs_core::json::JsonValue::Bool(false))
    );
    assert_eq!(doc.get("unwaived").and_then(|v| v.as_usize()), Some(10));
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let fx = Fixture::new("clean");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n",
    );
    fx.write("src/lib.rs", "pub fn ok() -> u8 { 1 }\n");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-lint"))
        .args(["--root"])
        .arg(&fx.root)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}",
        out.status
    );
}

/// The determinism/concurrency pack's waiver paths: the same violations as
/// `seeded_fixture` go quiet under justified pragmas, and a stale pragma is
/// itself waivable with `allow(stale-waiver)`.
#[test]
fn new_rule_waivers_go_quiet() {
    let fx = Fixture::new("waived-pack");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n",
    );
    fx.write(
        "crates/cs-core/src/waived_iter.rs",
        "use std::collections::HashMap;\n\npub fn total(m: &HashMap<String, u64>) -> u64 {\n    // cs-lint: allow(no-unordered-iteration) -- commutative integer fold\n    m.values().sum()\n}\n",
    );
    fx.write(
        "crates/cs-match/src/waived_env.rs",
        "pub fn knob() -> Option<String> {\n    // cs-lint: allow(no-ambient-authority) -- documented debug escape hatch\n    std::env::var(\"CS_FIXTURE\").ok()\n}\n",
    );
    fx.write(
        "crates/cs-embed/src/waived_locks.rs",
        "use std::sync::Mutex;\n\npub fn both(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let ga = a.lock().expect(\"a\");\n    // cs-lint: allow(lock-discipline) -- global order: a before b everywhere\n    let gb = b.lock().expect(\"b\");\n    *ga + *gb\n}\n",
    );
    fx.write(
        "crates/cs-core/src/waived_stale.rs",
        "// cs-lint: allow(stale-waiver) -- fixture: pragma kept while refactor lands\n// cs-lint: allow(no-unsafe) -- fixture: the unsafe block was just removed\npub fn quiet() -> u8 {\n    1\n}\n",
    );
    let report = lint_workspace(&fx.root).expect("lint runs");
    let unwaived: Vec<_> = report.unwaived().map(|f| f.render()).collect();
    assert!(unwaived.is_empty(), "expected clean, got {unwaived:?}");
    // iter + env + lock + two stale-waiver findings (the `no-unsafe` pragma
    // and the `allow(stale-waiver)` pragma itself, which has no base
    // finding under it) — all five recorded as waived.
    assert_eq!(report.findings.iter().filter(|f| f.waived).count(), 5);
}

/// The public-API snapshot gate end to end: a signature change registers as
/// drift, fails the binary's `--api-check`, and is acknowledged by
/// regenerating the lock (what `scripts/apilock.sh` does).
#[test]
fn api_check_detects_pub_signature_drift() {
    let fx = Fixture::new("api");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write(
        "Cargo.toml",
        "[package]\nname = \"fix\"\nversion = \"0.1.0\"\n",
    );
    fx.write("src/lib.rs", "pub fn stable(x: u8) -> u8 {\n    x\n}\n");

    let written = cs_lint::api::write_locks(&fx.root).expect("write locks");
    assert_eq!(written, vec![fx.root.join("API.lock")]);
    assert!(cs_lint::api::check_locks(&fx.root)
        .expect("check runs")
        .is_empty());

    // Changing a pub fn signature must register as removed + added drift…
    fx.write(
        "src/lib.rs",
        "pub fn stable(x: u16) -> u8 {\n    x as u8\n}\n",
    );
    let drift = cs_lint::api::check_locks(&fx.root).expect("check runs");
    assert!(
        drift.iter().any(|d| d.contains("removed from public API")
            && d.contains("pub fn stable ( x : u8 ) -> u8")),
        "{drift:?}"
    );
    assert!(
        drift
            .iter()
            .any(|d| d.contains("added to public API")
                && d.contains("pub fn stable ( x : u16 ) -> u8")),
        "{drift:?}"
    );

    // …and fail the compiled gate with a pointer to the regen script.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-lint"))
        .args(["--api-check", "--root"])
        .arg(&fx.root)
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "expected drift to fail --api-check, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("api drift"), "{stderr}");
    assert!(stderr.contains("scripts/apilock.sh"), "{stderr}");

    // Regenerating the snapshot acknowledges the change.
    cs_lint::api::write_locks(&fx.root).expect("rewrite locks");
    assert!(cs_lint::api::check_locks(&fx.root)
        .expect("check runs")
        .is_empty());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-lint"))
        .args(["--api-check", "--quiet", "--root"])
        .arg(&fx.root)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "expected clean check: {out:?}");
}

/// Keep the `--root` default usable: from inside the fixture dir the walker
/// should find the fixture's own lockfile, not the real workspace's.
#[test]
fn find_workspace_root_stops_at_first_lockfile() {
    let fx = Fixture::new("root");
    fx.write("Cargo.lock", CLEAN_LOCK);
    fx.write("sub/dir/keep.txt", "x");
    let found = cs_lint::find_workspace_root(&fx.root.join("sub/dir")).expect("found");
    assert_eq!(
        fs::canonicalize(&found).expect("canonical"),
        fs::canonicalize(&fx.root).expect("canonical")
    );
}
