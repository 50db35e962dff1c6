//! The rule set, tailored to this workspace (see DESIGN.md §7), and the
//! entry points that run it.
//!
//! Every `.rs` file is lexed and item-parsed once into a [`ParsedFile`];
//! the per-file rules and the crate-wide [`crate::dataflow`] pass all read
//! that one form, and one waiver pass then resolves pragmas and
//! `stale-waiver` over every finding ([`lint_files`]). File-path
//! classification decides which rules are in scope, and `#[cfg(test)]` /
//! `#[test]` item bodies are exempt from the hygiene rules so test code can
//! keep its idiomatic `unwrap()`s.

use std::collections::BTreeMap;

use crate::items::{self, matching_delim, Item, UseMap};
use crate::lexer::{lex, Pragma, Tok};
use crate::report::Finding;
use crate::{concurrency, dataflow};

/// Rule: `partial_cmp(..).unwrap()/.expect(..)` inside a sort/extremum
/// comparator — panics on the first NaN score. Use `cs_linalg::total_cmp_f64`.
pub const NO_FLOAT_SORT_UNWRAP: &str = "no-float-sort-unwrap";
/// Rule: `.unwrap()` in non-test library code of cs-core / cs-linalg.
pub const NO_UNWRAP_IN_LIB: &str = "no-unwrap-in-lib";
/// Rule: `panic!` / `todo!` / `unimplemented!` in cs-core non-test code.
pub const PANIC_FREE_CORE: &str = "panic-free-core";
/// Rule: no `unsafe` anywhere in the workspace.
pub const NO_UNSAFE: &str = "no-unsafe";
/// Rule: no registry/git dependency may enter the workspace (DESIGN.md §6).
pub const HERMETIC_DEPS: &str = "hermetic-deps";
/// Rule: `Mutex<Vec<..>>` (or a `.lock()..push(..)` chain) in cs-core /
/// pool non-test code — the classic shape of workers pushing results in
/// *arrival* order, which breaks the determinism contract (DESIGN.md §8).
/// Waivable where the vector's order provably does not reach any output.
pub const NO_ARRIVAL_ORDER_REDUCE: &str = "no-arrival-order-reduce";
/// Rule: `HashMap`/`HashSet` iteration in the deterministic-pipeline
/// crates, where hasher-dependent order can reach numeric accumulation or
/// serialized output (DESIGN.md §8). Use a `BTreeMap`/`BTreeSet` or an
/// explicit sort; waivable for provably commutative folds.
pub const NO_UNORDERED_ITERATION: &str = "no-unordered-iteration";
/// Rule: `std::env::var` / `Instant::now` / `SystemTime::now` outside the
/// designated config and bench modules — ambient process state must enter
/// through `cs_linalg::config`.
pub const NO_AMBIENT_AUTHORITY: &str = "no-ambient-authority";
/// Rule: a second `Mutex`/`RwLock` guard acquired while another may still
/// be live within one function body of `cs_linalg::pool` / cs-embed.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule: a justified `cs-lint: allow(<rule>)` pragma whose named rule no
/// longer fires on the waived line — dead waivers hide real regressions.
pub const STALE_WAIVER: &str = "stale-waiver";
/// Diagnostic for malformed or unknown waiver pragmas (not waivable).
pub const PRAGMA: &str = "pragma";
/// Rule: interprocedural determinism taint ([`crate::dataflow`]) — a
/// nondeterministically-ordered value (hash iteration, clock read,
/// arrival-order push under a lock) reaches an order-sensitive float
/// reduction through the intra-crate call graph (DESIGN.md §8). Waivable
/// at the source line or the sink line.
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// Rule: an unchecked `as` cast between float and integer width (or a
/// narrowing `as f32`) inside a hot-path kernel of cs-linalg /
/// `cs_linalg::pool` — NaN and out-of-range inputs truncate silently.
pub const NO_LOSSY_CAST_IN_HOT_PATH: &str = "no-lossy-cast-in-hot-path";
/// Rule: raw subtraction inside a slice index in chunk-deal code — a
/// `usize` underflow panics in debug and wraps to a wild index in release.
pub const NO_UNCHECKED_INDEX_ARITH: &str = "no-unchecked-index-arith";

/// Every enforceable rule name, for pragma validation.
pub const ALL_RULES: [&str; 13] = [
    NO_FLOAT_SORT_UNWRAP,
    NO_UNWRAP_IN_LIB,
    PANIC_FREE_CORE,
    NO_UNSAFE,
    HERMETIC_DEPS,
    NO_ARRIVAL_ORDER_REDUCE,
    NO_UNORDERED_ITERATION,
    NO_AMBIENT_AUTHORITY,
    LOCK_DISCIPLINE,
    STALE_WAIVER,
    DETERMINISM_TAINT,
    NO_LOSSY_CAST_IN_HOT_PATH,
    NO_UNCHECKED_INDEX_ARITH,
];

/// Diagnostic weight: `Error` findings fail the gate; `Warning` findings
/// are reported (and counted in the JSON document) but do not flip the
/// exit code, so advisory rules can ride in the same report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    /// The lowercase label used in the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Severity of a rule. Everything is an error except the advisory
/// hot-path cast rule, whose findings are legitimate in mixed-precision
/// kernels and gate via review + waiver instead of the exit code.
pub fn severity(rule: &str) -> Severity {
    if rule == NO_LOSSY_CAST_IN_HOT_PATH {
        Severity::Warning
    } else {
        Severity::Error
    }
}

/// Comparator-taking methods in whose argument list a float
/// `partial_cmp().unwrap()` is banned. Matched after a `.` receiver or a
/// `::` path segment (`Iterator::min_by(..)`-style UFCS calls).
const COMPARATOR_FNS: [&str; 7] = [
    "sort_by",
    "sort_unstable_by",
    "select_nth_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "partition_point_by", // future-proofing; not std, but harmless
];

/// The chunk-deal pool: outside cs-core, but held to every cs-core rule
/// plus the lock, hot-path and chunk-deal scopes.
const POOL_PATH: &str = "crates/cs-linalg/src/pool.rs";

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Under `crates/cs-core/src/`, or the chunk-deal pool — panic-free
    /// and unwrap-free.
    pub core_lib: bool,
    /// Under `crates/cs-linalg/src/` — unwrap-free.
    pub linalg_lib: bool,
    /// Under a `tests/` or `benches/` directory: hygiene rules off,
    /// `no-unsafe` still on.
    pub test_code: bool,
    /// Deterministic-pipeline crates (`no-unordered-iteration` scope):
    /// library sources of cs-core, cs-linalg, cs-match, cs-schema, cs-repro.
    pub det_scope: bool,
    /// Designated config / bench module: `no-ambient-authority` off.
    pub ambient_exempt: bool,
    /// `lock-discipline` scope: `cs_linalg::pool` and cs-embed sources.
    pub lock_scope: bool,
    /// Hot-path kernel scope (`no-lossy-cast-in-hot-path`): cs-linalg
    /// library sources, the chunk-deal pool included.
    pub hot_path: bool,
    /// Chunk-deal / slot-assembly scope (`no-unchecked-index-arith`):
    /// the pool and the cs-linalg kernels.
    pub chunk_deal: bool,
}

impl FileClass {
    /// Classifies a `/`-separated workspace-relative path.
    pub fn from_path(rel_path: &str) -> Self {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let under = |prefix: &[&str]| parts.len() > prefix.len() && parts.starts_with(prefix);
        let basename = parts.last().copied().unwrap_or("");
        FileClass {
            core_lib: under(&["crates", "cs-core", "src"]) || rel_path == POOL_PATH,
            linalg_lib: under(&["crates", "cs-linalg", "src"]),
            test_code: parts[..parts.len().saturating_sub(1)]
                .iter()
                .any(|p| *p == "tests" || *p == "benches"),
            det_scope: ["cs-core", "cs-linalg", "cs-match", "cs-schema", "cs-repro"]
                .iter()
                .any(|c| under(&["crates", c, "src"])),
            ambient_exempt: under(&["crates", "cs-bench"]) || basename == "config.rs",
            lock_scope: rel_path == POOL_PATH || under(&["crates", "cs-embed", "src"]),
            hot_path: under(&["crates", "cs-linalg", "src"]),
            chunk_deal: rel_path == POOL_PATH || rel_path == "crates/cs-linalg/src/kernels.rs",
        }
    }
}

/// One `.rs` file, lexed and item-parsed once: the form every rule reads.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative, `/`-separated path.
    pub(crate) rel: String,
    pub(crate) class: FileClass,
    pub(crate) toks: Vec<Tok>,
    pub(crate) pragmas: Vec<Pragma>,
    pub(crate) items: Vec<Item>,
    pub(crate) uses: UseMap,
    /// Token ranges of `#[cfg(test)]` / `#[test]` item bodies.
    pub(crate) test_regions: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Lexes and parses `src`; `rel_path` is the workspace-relative path
    /// used both for classification and in diagnostics.
    pub fn parse(src: &str, rel_path: &str) -> Self {
        let lexed = lex(src);
        let items = items::parse_items(&lexed.tokens);
        ParsedFile {
            rel: rel_path.to_string(),
            class: FileClass::from_path(rel_path),
            uses: UseMap::build(&lexed.tokens, &items),
            test_regions: find_test_regions(&lexed.tokens),
            toks: lexed.tokens,
            pragmas: lexed.pragmas,
            items,
        }
    }

    /// True when token `idx` is test code: a test file or a test item.
    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.class.test_code || self.test_regions.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// Every `fn` with a body outside test code, with its `[open, close]`
    /// body range.
    pub(crate) fn fn_bodies(&self) -> Vec<(&Item, (usize, usize))> {
        let mut fns = Vec::new();
        items::for_each_fn(&self.items, &mut |f| {
            if let Some(body) = f.body.filter(|b| !self.in_test(b.0)) {
                fns.push((f, body));
            }
        });
        fns
    }
}

/// Lints one Rust source file on its own, as a one-file workspace.
pub fn lint_rust_source(src: &str, rel_path: &str) -> Vec<Finding> {
    lint_files(&[ParsedFile::parse(src, rel_path)])
}

/// Runs every Rust rule over `files`: the per-file rules, the crate-wide
/// determinism pass, then one waiver pass over all of their findings.
/// Findings come back sorted by file, line and rule.
pub(crate) fn lint_files(files: &[ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        lint_file(file, &mut findings);
    }
    findings.extend(dataflow::analyze_workspace(files));
    resolve_waivers(files, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The per-file rules: token rules, item rules and pragma validation.
fn lint_file(file: &ParsedFile, findings: &mut Vec<Finding>) {
    let (class, toks, rel_path) = (&file.class, &file.toks, file.rel.as_str());
    check_pragmas(&file.pragmas, rel_path, findings);
    for (i, t) in toks.iter().enumerate() {
        let Some(word) = t.ident() else { continue };
        match word {
            "unsafe" => findings.push(Finding::new(
                NO_UNSAFE,
                rel_path,
                t.line,
                "`unsafe` is banned workspace-wide; every substrate is safe Rust",
            )),
            "panic" | "todo" | "unimplemented"
                if class.core_lib
                    && !file.in_test(i)
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    // `panic` in `#[should_panic]`-style attribute positions
                    // has no `!`; the bang check already excludes it.
                    =>
            {
                findings.push(Finding::new(
                    PANIC_FREE_CORE,
                    rel_path,
                    t.line,
                    format!("`{word}!` in cs-core non-test code; return a typed error instead"),
                ));
            }
            "unwrap"
                if (class.core_lib || class.linalg_lib)
                    && !file.in_test(i)
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(')')) =>
            {
                findings.push(Finding::new(
                    NO_UNWRAP_IN_LIB,
                    rel_path,
                    t.line,
                    "`.unwrap()` in library code; propagate a typed error or document \
                     the invariant with a waiver pragma",
                ));
            }
            _ => {}
        }
    }
    find_float_sort_unwraps(file, findings);
    concurrency::lint_items(file, findings);
    dataflow::lint_hot_path_items(file, findings);
}

/// The one waiver pass. A finding is waived when a justified pragma naming
/// its rule sits on, or the line above, one of its anchors: its own line,
/// or for a taint finding also its source line. `pragma` findings are never
/// waivable. Then every justified pragma naming a rule that anchors no
/// finding (waived or not) on the pragma's line or the line below yields a
/// [`STALE_WAIVER`] finding, itself waivable by `allow(stale-waiver)`.
fn resolve_waivers(files: &[ParsedFile], findings: &mut Vec<Finding>) {
    let pragmas: BTreeMap<&str, &[Pragma]> = files
        .iter()
        .map(|f| (f.rel.as_str(), f.pragmas.as_slice()))
        .collect();
    let covered = |rule: &str, file: &str, line: u32| {
        pragmas.get(file).is_some_and(|ps| {
            ps.iter().any(|p| {
                p.justified
                    && (p.line == line || p.line + 1 == line)
                    && p.rules.iter().any(|r| r == rule)
            })
        })
    };
    for f in findings.iter_mut().filter(|f| f.rule != PRAGMA) {
        let waived = f.anchors().any(|(file, line)| covered(f.rule, file, line));
        f.waived = waived;
    }

    let mut stale = Vec::new();
    for file in files {
        for p in file.pragmas.iter().filter(|p| p.justified) {
            // Unknown rule names are already reported as `pragma` findings.
            for r in p.rules.iter().filter(|r| ALL_RULES.contains(&r.as_str())) {
                let live = findings.iter().any(|f| {
                    f.rule == r
                        && f.anchors()
                            .any(|(af, al)| af == file.rel && (al == p.line || al == p.line + 1))
                });
                if live {
                    continue;
                }
                let message = if r == DETERMINISM_TAINT {
                    "waiver for `determinism-taint` anchors no source or sink of any \
                     taint path; delete the pragma"
                        .to_string()
                } else {
                    format!("waiver for `{r}` no longer matches a finding here; delete the pragma")
                };
                let mut f = Finding::new(STALE_WAIVER, file.rel.clone(), p.line, message);
                f.waived = covered(STALE_WAIVER, &file.rel, p.line);
                stale.push(f);
            }
        }
    }
    findings.extend(stale);
}

/// Reports malformed pragmas (missing justification, unknown rule names).
fn check_pragmas(pragmas: &[Pragma], rel_path: &str, findings: &mut Vec<Finding>) {
    for p in pragmas {
        if p.rules.is_empty() {
            findings.push(Finding::new(
                PRAGMA,
                rel_path,
                p.line,
                "malformed waiver: expected `cs-lint: allow(<rule>) -- <justification>`",
            ));
            continue;
        }
        if !p.justified {
            findings.push(Finding::new(
                PRAGMA,
                rel_path,
                p.line,
                "waiver pragma needs a `-- <justification>` trailer",
            ));
        }
        for r in &p.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                findings.push(Finding::new(
                    PRAGMA,
                    rel_path,
                    p.line,
                    format!("waiver names unknown rule `{r}`"),
                ));
            }
        }
    }
}

/// Token-index ranges `(start, end)` covering the bodies of `#[cfg(test)]`
/// / `#[test]` items (inclusive of the braces).
fn find_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching_delim(toks, i + 1, toks.len(), '[', ']') {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&toks[i + 2..attr_end]) {
                // Skip any further attributes, then find the item's brace
                // block; a `;` first means an out-of-line item (no body).
                let mut j = attr_end + 1;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching_delim(toks, j + 1, toks.len(), '[', ']') {
                        Some(e) => j = e + 1,
                        None => return regions,
                    }
                }
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    if let Some(close) = matching_delim(toks, j, toks.len(), '{', '}') {
                        regions.push((i, close));
                        i = attr_end + 1; // attributes can nest inside; rescan body is harmless
                        continue;
                    }
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]` — any attribute whose
/// first ident is `test`, or `cfg(..)` mentioning `test`.
fn attr_is_test(attr: &[Tok]) -> bool {
    match attr.first().and_then(Tok::ident) {
        Some("test") => true,
        // `not` makes the predicate ambiguous (`cfg(not(test))`); treat it
        // as non-test so lib code can't hide behind a negation.
        Some("cfg") => {
            attr.iter().skip(1).any(|t| t.is_ident("test"))
                && !attr.iter().any(|t| t.is_ident("not"))
        }
        _ => false,
    }
}

/// Detects `partial_cmp(..).unwrap()` / `.expect(..)` inside the argument
/// list of a comparator-taking method call.
fn find_float_sort_unwraps(file: &ParsedFile, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    let mut depth = 0i64;
    // Paren depths at which a comparator call's argument list is open.
    let mut ctx: Vec<i64> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            depth += 1;
            // Did this paren open a `.sort_by(`-style call, or a
            // `Iterator::min_by(`-style UFCS call?
            let recv = i >= 2
                && (toks[i - 2].is_punct('.')
                    || (toks[i - 2].is_punct(':') && i >= 3 && toks[i - 3].is_punct(':')));
            if recv
                && toks[i - 1]
                    .ident()
                    .is_some_and(|w| COMPARATOR_FNS.contains(&w))
            {
                ctx.push(depth);
            }
        } else if t.is_punct(')') {
            if ctx.last() == Some(&depth) {
                ctx.pop();
            }
            depth -= 1;
        } else if t.is_ident("partial_cmp")
            && !ctx.is_empty()
            && i > 0
            // Method form (`a.partial_cmp(b)`) or UFCS path form
            // (`f64::partial_cmp(a, b)`) — both produce the NaN-panicking
            // `Option<Ordering>` when chained into `unwrap`/`expect`.
            && (toks[i - 1].is_punct('.')
                || (toks[i - 1].is_punct(':') && i >= 2 && toks[i - 2].is_punct(':')))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matching_delim(toks, i + 1, toks.len(), '(', ')') {
                let chained = toks.get(close + 1).is_some_and(|n| n.is_punct('.'))
                    && toks
                        .get(close + 2)
                        .and_then(Tok::ident)
                        .is_some_and(|w| w == "unwrap" || w == "expect");
                if chained && !file.in_test(i) {
                    let method = toks[close + 2].ident().unwrap_or("unwrap");
                    findings.push(Finding::new(
                        NO_FLOAT_SORT_UNWRAP,
                        file.rel.as_str(),
                        toks[i].line,
                        format!(
                            "`partial_cmp(..).{method}(..)` inside a comparator panics on NaN; \
                             use `cs_linalg::total_cmp_f64`"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/cs-core/src/fake.rs";

    fn rules_fired(src: &str, path: &str) -> Vec<&'static str> {
        lint_rust_source(src, path)
            .into_iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn classification() {
        let c = FileClass::from_path("crates/cs-core/src/scoping.rs");
        assert!(c.core_lib && !c.linalg_lib && !c.test_code);
        assert!(c.det_scope && !c.ambient_exempt && !c.lock_scope);
        let t = FileClass::from_path("crates/cs-linalg/tests/properties.rs");
        assert!(t.test_code && !t.linalg_lib && !t.det_scope);
        let b = FileClass::from_path("crates/cs-bench/benches/scaling.rs");
        assert!(b.test_code && b.ambient_exempt);
        let root = FileClass::from_path("tests/hermetic.rs");
        assert!(root.test_code);
        // The pool sits in all five scopes: panic-free and arrival-order
        // (via core_lib), determinism, locks, hot path and chunk-deal.
        let pool = FileClass::from_path("crates/cs-linalg/src/pool.rs");
        assert!(pool.core_lib && pool.det_scope && pool.lock_scope);
        assert!(pool.hot_path && pool.chunk_deal);
        let embed = FileClass::from_path("crates/cs-embed/src/encoder.rs");
        assert!(embed.lock_scope && !embed.det_scope);
        assert!(!embed.hot_path && !embed.chunk_deal);
        let cfg = FileClass::from_path("crates/cs-linalg/src/config.rs");
        assert!(cfg.ambient_exempt && cfg.linalg_lib);
        let kern = FileClass::from_path("crates/cs-linalg/src/kernels.rs");
        assert!(kern.hot_path && kern.chunk_deal);
        let core = FileClass::from_path("crates/cs-core/src/scoping.rs");
        assert!(!core.hot_path && !core.chunk_deal);
    }

    #[test]
    fn severity_split() {
        assert_eq!(severity(NO_LOSSY_CAST_IN_HOT_PATH), Severity::Warning);
        assert_eq!(severity(NO_UNCHECKED_INDEX_ARITH), Severity::Error);
        assert_eq!(severity(DETERMINISM_TAINT), Severity::Error);
        assert_eq!(severity(NO_UNSAFE), Severity::Error);
        assert_eq!(Severity::Warning.label(), "warning");
    }

    #[test]
    fn unwrap_in_core_lib_fires() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_fired(src, LIB), vec![NO_UNWRAP_IN_LIB]);
        // Same code in a non-core crate: clean.
        assert!(rules_fired(src, "crates/cs-match/src/fake.rs").is_empty());
        // Same code inside a test mod: clean.
        let test_src = format!("#[cfg(test)] mod tests {{ {src} }}");
        assert!(rules_fired(&test_src, LIB).is_empty());
    }

    #[test]
    fn test_fn_attribute_exempts() {
        let src = "#[test]\nfn t() { Some(1).unwrap(); }";
        assert!(rules_fired(src, LIB).is_empty());
    }

    #[test]
    fn panic_macros_fire_only_in_core() {
        for mac in ["panic!(\"boom\")", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {mac}; }}");
            assert_eq!(rules_fired(&src, LIB), vec![PANIC_FREE_CORE], "{mac}");
            assert!(rules_fired(&src, "crates/cs-oda/src/fake.rs").is_empty());
        }
        // `panic` without a bang (e.g. a variable named panic) is fine.
        assert!(rules_fired("fn f() { let panic = 1; }", LIB).is_empty());
    }

    #[test]
    fn unsafe_fires_everywhere_even_tests() {
        let src = "#[cfg(test)] mod t { fn f() { unsafe { () } } }";
        assert_eq!(
            rules_fired(src, "crates/cs-embed/tests/x.rs"),
            vec![NO_UNSAFE]
        );
    }

    #[test]
    fn float_sort_unwrap_fires() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
        let src = "fn f(v: &[f64], d: f64) { v.binary_search_by(|x| x.partial_cmp(&d).expect(\"finite\")).ok(); }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
    }

    #[test]
    fn select_nth_and_ufcs_comparators_fire() {
        let src = "fn f(v: &mut [f64]) { v.select_nth_unstable_by(3, |a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
        // UFCS receiver form: `Iterator::min_by(iter, cmp)`.
        let src = "fn f(v: Vec<f64>) -> Option<f64> {\n\
                   Iterator::min_by(v.into_iter(), |a, b| a.partial_cmp(b).unwrap())\n\
                   }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
        let src = "fn f(v: Vec<f64>) -> Option<f64> {\n\
                   std::iter::Iterator::max_by(v.into_iter(), |a, b| a.partial_cmp(b).expect(\"fin\"))\n\
                   }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
    }

    #[test]
    fn ufcs_partial_cmp_inside_comparator_fires() {
        // PR 6-era kernels spell the comparator as `f64::partial_cmp(a, b)`
        // — the path form must be caught exactly like `.partial_cmp(..)`.
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| f64::partial_cmp(a, b).unwrap()); }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
        let src = "fn f(v: &[f64], d: f64) {\n\
                   v.binary_search_by(|x| f64::partial_cmp(x, &d).expect(\"finite\")).ok();\n\
                   }";
        assert_eq!(
            rules_fired(src, "crates/cs-match/src/fake.rs"),
            vec![NO_FLOAT_SORT_UNWRAP]
        );
        // The UFCS form with a total order is clean.
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| f64::total_cmp(a, b)); }";
        assert!(rules_fired(src, "crates/cs-match/src/fake.rs").is_empty());
    }

    #[test]
    fn stale_waiver_fires_when_rule_is_quiet() {
        let src = "fn f(x: Option<u8>) -> Option<u8> {\n\
                   // cs-lint: allow(no-unwrap-in-lib) -- left behind after a refactor\n\
                   x\n\
                   }";
        assert_eq!(rules_fired(src, LIB), vec![STALE_WAIVER]);
    }

    #[test]
    fn live_waiver_is_not_stale() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // cs-lint: allow(no-unwrap-in-lib) -- invariant: x always Some here\n\
                   x.unwrap()\n\
                   }";
        assert!(rules_fired(src, LIB).is_empty());
    }

    #[test]
    fn stale_waiver_per_rule_in_multi_rule_pragma() {
        // One pragma naming two rules: only the quiet one is stale.
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // cs-lint: allow(no-unwrap-in-lib, no-unsafe) -- mixed\n\
                   x.unwrap()\n\
                   }";
        assert_eq!(rules_fired(src, LIB), vec![STALE_WAIVER]);
    }

    #[test]
    fn float_sort_with_total_cmp_is_clean() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(cs_linalg::total_cmp_f64); }";
        assert!(rules_fired(src, "crates/cs-match/src/fake.rs").is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_outside_comparator_is_not_this_rule() {
        // Not inside sort_by/max_by/..: no-float-sort-unwrap stays silent
        // (no-unwrap-in-lib may still fire in core/linalg).
        let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap(); }";
        assert!(rules_fired(src, "crates/cs-match/src/fake.rs").is_empty());
        assert_eq!(rules_fired(src, LIB), vec![NO_UNWRAP_IN_LIB]);
    }

    #[test]
    fn waiver_pragma_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // cs-lint: allow(no-unwrap-in-lib) -- invariant: x always Some here\n    x.unwrap()\n}";
        assert!(rules_fired(src, LIB).is_empty());
        // Same-line waiver.
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // cs-lint: allow(no-unwrap-in-lib) -- checked";
        assert!(rules_fired(src, LIB).is_empty());
    }

    #[test]
    fn waiver_without_justification_does_not_suppress() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // cs-lint: allow(no-unwrap-in-lib)\n    x.unwrap()\n}";
        let fired = rules_fired(src, LIB);
        assert!(fired.contains(&PRAGMA));
        assert!(fired.contains(&NO_UNWRAP_IN_LIB));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // cs-lint: allow(no-unsafe) -- wrong rule\n    x.unwrap()\n}";
        assert!(rules_fired(src, LIB).contains(&NO_UNWRAP_IN_LIB));
    }

    #[test]
    fn unknown_rule_in_pragma_reported() {
        let src = "// cs-lint: allow(no-such-rule) -- why\nfn f() {}";
        assert_eq!(rules_fired(src, LIB), vec![PRAGMA]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r###"
            fn f() {
                let s = "x.unwrap() and unsafe and panic!";
                let r = r#"v.sort_by(|a, b| a.partial_cmp(b).unwrap())"#;
                // x.unwrap(); unsafe { panic!() }
            }
        "###;
        assert!(rules_fired(src, LIB).is_empty());
    }
}
