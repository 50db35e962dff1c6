//! The determinism pass (DESIGN.md §7/§8): one per-function scanner for
//! nondeterministically-ordered producers, the interprocedural
//! determinism-taint dataflow built on it, and the hot-path item rules.
//!
//! [`analyze_workspace`] reads every [`ParsedFile`] once. In each non-test
//! fn body of a crate's library sources, the one scanner finds the
//! **sources**: hasher-ordered `HashMap`/`HashSet` iteration (method form
//! `m.values()` and loop form `for x in &m {`, minus chains that restore an
//! order: a sort, a BTree collect, an order-insensitive terminal),
//! `Instant::now` / `SystemTime::now` reads, arrival-order
//! `.lock()..push(..)` chains and `Mutex<Vec<..>>` accumulators. Each
//! source both emits its intra-function rule and seeds the taint:
//!
//! - hash iteration emits [`crate::rules::NO_UNORDERED_ITERATION`] in the
//!   deterministic-pipeline crates,
//! - the arrival-order sites emit [`crate::rules::NO_ARRIVAL_ORDER_REDUCE`]
//!   in cs-core and the pool, as does a `Mutex<Vec<..>>` declared outside
//!   a body (a struct field, a static, a fn signature).
//!
//! **Sinks** are order-sensitive float reductions: `.sum()` / `.product()`
//! / `.fold(..)`, float `+=` accumulation inside loops, and calls into
//! `kernels::*` entry points. **Propagation** runs both directions through
//! the intra-crate call graph: a sink function that (transitively) *calls*
//! a tainted function (return flow), and a tainted function that
//! (transitively) calls a sink function (argument flow). No
//! return-value/argument distinction is attempted — shared-state channels
//! (a locked accumulator both ends can see) make that distinction unsound
//! for a lite analysis, so a call edge conducts taint either way.
//!
//! A [`crate::rules::DETERMINISM_TAINT`] finding reports the full source →
//! call-chain → sink path and is emitted only when source and sink live in
//! *different* functions; the same-function case is the intra rule the
//! source already emitted (no intra rule covers a clock read or a source
//! outside those crates). Its waivers (`// cs-lint: allow(determinism-taint)
//! -- ..`) apply at either end of the path, because the finding carries its
//! source line as a second anchor for the one waiver pass in
//! [`crate::rules`].
//!
//! Two cheaper item-level rules ride along on the same brace tree
//! ([`lint_hot_path_items`], run per file):
//!
//! - [`crate::rules::NO_LOSSY_CAST_IN_HOT_PATH`] — float↔int (and
//!   `as f32` narrowing) `as` casts in cs-linalg / pool kernels,
//! - [`crate::rules::NO_UNCHECKED_INDEX_ARITH`] — raw subtraction inside
//!   slice indexing in chunk-deal code.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{
    let_binding_before, matching_delim, statement_end, struct_fields, type_end, Item, ItemKind,
};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::rules::{
    FileClass, ParsedFile, DETERMINISM_TAINT, NO_ARRIVAL_ORDER_REDUCE, NO_LOSSY_CAST_IN_HOT_PATH,
    NO_UNCHECKED_INDEX_ARITH, NO_UNORDERED_ITERATION,
};

/// Iterator-producing methods on hash collections whose order is
/// hasher-dependent.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Chain methods that impose an explicit order downstream of an unordered
/// iterator.
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
];

/// Terminal adapters whose result does not depend on iteration order
/// (counting and boolean folds; float `sum` is *not* here — float
/// addition is order-sensitive, which is this pass's whole point).
const ORDER_INSENSITIVE_TERMINALS: [&str; 3] = ["count", "any", "all"];

/// Float-returning methods that mark a cast operand as float-derived even
/// without a tracked receiver symbol.
const FLOAT_METHODS: [&str; 14] = [
    "sqrt", "powf", "powi", "ln", "log2", "log10", "exp", "floor", "ceil", "round", "trunc",
    "recip", "mul_add", "hypot",
];

/// Integer targets of an `as` cast that truncate a float operand.
const INT_CAST_TARGETS: [&str; 12] = [
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// The message of every `no-arrival-order-reduce` finding.
const ARRIVAL_MESSAGE: &str = "`Mutex<Vec<..>>` accumulates parallel results in arrival order, \
                               breaking the determinism contract (DESIGN.md §8); deal indexed \
                               chunks and assemble result slots by position (see cs_linalg::pool)";

/// A nondeterministically-ordered producer found by the one scanner.
#[derive(Debug, Clone)]
enum Source {
    /// `.method()` iteration of a hash collection; holds the method.
    HashMethod(String),
    /// A `for` loop directly over a hash collection.
    HashLoop,
    /// `Instant::now` / `SystemTime::now`; holds the type.
    Clock(String),
    /// A `.lock()..push(..)` chain.
    ArrivalPush,
    /// A `Mutex<Vec<..>>` type.
    ArrivalShape,
}

impl Source {
    /// How a taint finding names this source.
    fn desc(&self) -> String {
        match self {
            Source::HashMethod(word) => format!("hasher-ordered `.{word}()` on a HashMap/HashSet"),
            Source::HashLoop => "hasher-ordered `for` over a HashMap/HashSet".to_string(),
            Source::Clock(word) => format!("clock-derived value (`{word}::now`)"),
            Source::ArrivalPush => "arrival-order `.push(..)` under a lock".to_string(),
            Source::ArrivalShape => "arrival-order `Mutex<Vec<..>>` accumulator".to_string(),
        }
    }

    /// The intra-function rule and message this source emits in a file of
    /// class `class`, if the file is in that rule's scope.
    fn intra(&self, class: &FileClass) -> Option<(&'static str, String)> {
        match self {
            Source::HashMethod(word) if class.det_scope => Some((
                NO_UNORDERED_ITERATION,
                format!(
                    "`.{word}()` on a HashMap/HashSet iterates in hasher order, which can reach \
                     numeric accumulation or serialized output (DESIGN.md §8); use a \
                     BTreeMap/BTreeSet or sort before consuming"
                ),
            )),
            Source::HashLoop if class.det_scope => Some((
                NO_UNORDERED_ITERATION,
                "`for` over a HashMap/HashSet visits entries in hasher order, which can reach \
                 numeric accumulation or serialized output (DESIGN.md §8); use a \
                 BTreeMap/BTreeSet or collect-and-sort first"
                    .to_string(),
            )),
            Source::ArrivalPush | Source::ArrivalShape if class.core_lib => {
                Some((NO_ARRIVAL_ORDER_REDUCE, ARRIVAL_MESSAGE.to_string()))
            }
            _ => None,
        }
    }
}

/// Per-function facts feeding the call graph.
#[derive(Debug)]
struct FnFacts {
    /// Index into the analyzed file list.
    file: usize,
    name: String,
    sources: Vec<(u32, Source)>,
    /// `(line, description)` of each order-sensitive reduction.
    sinks: Vec<(u32, String)>,
    /// Names called from the body (plain and method calls), resolved
    /// against the crate's function set when edges are built.
    calls: BTreeSet<String>,
}

/// Runs the determinism pass over parsed files: the intra-function
/// `no-unordered-iteration` and `no-arrival-order-reduce` findings, then
/// the `determinism-taint` paths of each crate's call graph. Findings come
/// back unwaived; [`crate::rules`] resolves waivers over them.
pub fn analyze_workspace(files: &[ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut crates: BTreeMap<&str, Vec<FnFacts>> = BTreeMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        let Some(cr) = crate_of(&file.rel) else {
            continue;
        };
        if file.class.test_code {
            continue;
        }
        let hash_types = hash_type_names(file);
        let fields = hash_fields(file, &file.items, &hash_types);
        let mut shapes = Vec::new();
        declared_shapes(file, &file.items, &mut shapes);
        let emit = |line: u32, source: &Source, findings: &mut Vec<Finding>| {
            if let Some((rule, message)) = source.intra(&file.class) {
                findings.push(Finding::new(rule, file.rel.as_str(), line, message));
            }
        };
        for line in shapes {
            emit(line, &Source::ArrivalShape, &mut findings);
        }
        let fns = crates.entry(cr).or_default();
        for (f, body) in file.fn_bodies() {
            let symbols = hash_symbols(&file.toks, f, &hash_types);
            let sources = scan_sources(&file.toks, body, &symbols, &fields);
            for (line, source) in &sources {
                emit(*line, source, &mut findings);
            }
            if f.name.is_empty() {
                continue;
            }
            let mut facts = FnFacts {
                file: file_idx,
                name: f.name.clone(),
                sources,
                sinks: Vec::new(),
                calls: BTreeSet::new(),
            };
            collect_sinks(&file.toks, f, body, &mut facts.sinks);
            collect_calls(&file.toks, body, &mut facts.calls);
            fns.push(facts);
        }
    }
    for fns in crates.values() {
        analyze_crate(files, fns, &mut findings);
    }
    findings
}

/// Crate a workspace-relative source path belongs to, for call-graph
/// grouping. Test/bench trees and cs-bench (whose whole job is timing
/// floats) are out of scope.
fn crate_of(rel: &str) -> Option<&str> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.first() {
        Some(&"crates") if parts.len() > 3 && parts[2] == "src" && parts[1] != "cs-bench" => {
            Some(parts[1])
        }
        Some(&"src") => Some("<root>"),
        _ => None,
    }
}

/// Local type names that denote `std::collections::{HashMap, HashSet}` in
/// one file: the literal names (fully-qualified mentions keep the bare
/// ident in the token stream) plus every `use` alias resolving to them.
fn hash_type_names(file: &ParsedFile) -> BTreeSet<String> {
    let aliases = file.uses.iter().filter(|(_, path)| {
        path.starts_with("std::collections::")
            && (path.ends_with("::HashMap") || path.ends_with("::HashSet"))
    });
    ["HashMap", "HashSet"]
        .into_iter()
        .chain(aliases.map(|(name, _)| name))
        .map(str::to_string)
        .collect()
}

/// True when the *outer* type in `range` is a hash collection: the last
/// ident before the first `<` (path segments allowed, references skipped).
/// `Vec<HashMap<..>>` is ordered at the iteration boundary and must not
/// match; `&HashMap<..>` and `std::collections::HashMap<..>` must.
fn outer_is_hash(toks: &[Tok], (start, end): (usize, usize), names: &BTreeSet<String>) -> bool {
    toks[start..end.min(toks.len())]
        .iter()
        .take_while(|t| !t.is_punct('<'))
        .filter_map(Tok::ident)
        .last()
        .is_some_and(|w| names.contains(w))
}

/// Struct fields (file-wide) whose declared type is a hash collection.
fn hash_fields(file: &ParsedFile, items: &[Item], names: &BTreeSet<String>) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    for item in items {
        if let (ItemKind::Struct | ItemKind::Union, Some(body)) = (item.kind, item.body) {
            for f in struct_fields(&file.toks, body) {
                if outer_is_hash(&file.toks, f.ty, names) {
                    fields.insert(file.toks[f.name].text());
                }
            }
        }
        fields.extend(hash_fields(file, &item.children, names));
    }
    fields
}

/// `Mutex<Vec<..>>` types outside fn bodies — struct fields, statics,
/// consts, type aliases and fn signatures — as source lines, test code
/// excluded. Bodies are the scanner's.
fn declared_shapes(file: &ParsedFile, items: &[Item], out: &mut Vec<u32>) {
    for item in items {
        let end = match (item.kind, item.body) {
            (ItemKind::Fn | ItemKind::Impl | ItemKind::Mod | ItemKind::Trait, _) | (_, None) => {
                item.sig.1
            }
            (_, Some((_, close))) => close,
        };
        out.extend(
            (item.sig.0..end)
                .filter(|&i| is_mutex_vec(&file.toks, i) && !file.in_test(i))
                .map(|i| file.toks[i].line),
        );
        declared_shapes(file, &item.children, out);
    }
}

/// `Mutex < Vec` at token `i`.
fn is_mutex_vec(toks: &[Tok], i: usize) -> bool {
    toks[i].is_ident("Mutex")
        && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("Vec"))
}

/// A parameter or `let` binding of one fn, with the tokens that type it.
struct Binding<'t> {
    name: &'t str,
    /// `[start, end)`: the type annotation when `annotated`, otherwise the
    /// `let` initializer.
    range: (usize, usize),
    annotated: bool,
}

/// The annotated parameters and the `let [mut] name` bindings of one fn
/// (a `let`'s initializer is not searched for nested `let`s).
fn fn_bindings<'t>(toks: &'t [Tok], f: &Item) -> Vec<Binding<'t>> {
    let mut out = Vec::new();
    let (sig_start, sig_end) = f.sig;
    if let Some(open) = (sig_start..sig_end).find(|&k| toks[k].is_punct('(')) {
        if let Some(close) = matching_delim(toks, open, sig_end, '(', ')') {
            let mut i = open + 1;
            while i < close {
                match toks[i].ident() {
                    Some(name) if toks[i + 1].is_punct(':') => {
                        let end = type_end(toks, i + 2, close);
                        out.push(Binding {
                            name,
                            range: (i + 2, end),
                            annotated: true,
                        });
                        i = end + 1;
                    }
                    _ => i += 1,
                }
            }
        }
    }
    if let Some((open, close)) = f.body {
        let mut i = open;
        while i < close {
            if !toks[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1 + usize::from(toks[i + 1].is_ident("mut"));
            let Some(name) = toks.get(j).and_then(Tok::ident) else {
                i = j + 1;
                continue;
            };
            j += 1;
            let stmt_end = statement_end(toks, j, close);
            if toks[j].is_punct(':') {
                let ty_end = (j + 1..stmt_end)
                    .find(|&k| toks[k].is_punct('='))
                    .unwrap_or(stmt_end);
                out.push(Binding {
                    name,
                    range: (j + 1, ty_end),
                    annotated: true,
                });
            } else if toks[j].is_punct('=') {
                out.push(Binding {
                    name,
                    range: (j + 1, stmt_end),
                    annotated: false,
                });
            }
            i = stmt_end + 1;
        }
    }
    out
}

/// Identifiers in one function known to hold a hash collection: bindings
/// with a hash type annotation, and `let`s initialized from `HashName::..`.
fn hash_symbols(toks: &[Tok], f: &Item, names: &BTreeSet<String>) -> BTreeSet<String> {
    let hashy = |b: &Binding| {
        if b.annotated {
            return outer_is_hash(toks, b.range, names);
        }
        (b.range.0..b.range.1).any(|k| {
            toks[k].ident().is_some_and(|w| names.contains(w))
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        })
    };
    fn_bindings(toks, f)
        .into_iter()
        .filter(hashy)
        .map(|b| b.name.to_string())
        .collect()
}

/// The one scanner: every source in one fn body, in token order. Hash
/// receivers are the fn's hash `symbols` and any receiver's hash `fields`.
fn scan_sources(
    toks: &[Tok],
    (open, close): (usize, usize),
    symbols: &BTreeSet<String>,
    fields: &BTreeSet<String>,
) -> Vec<(u32, Source)> {
    let is_hash_receiver = |idx: usize| -> bool {
        // `sym.iter()` — receiver ident directly before the dot.
        let Some(word) = toks.get(idx).and_then(Tok::ident) else {
            return false;
        };
        let after_dot = idx >= 1 && toks[idx - 1].is_punct('.');
        // `x.field.iter()` — field access on any receiver.
        if after_dot {
            fields.contains(word)
        } else {
            symbols.contains(word)
        }
    };

    let mut out = Vec::new();
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        let Some(word) = t.ident() else {
            i += 1;
            continue;
        };
        // Hash iteration, method form, minus chains that restore an order.
        if ITER_METHODS.contains(&word)
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && is_hash_receiver(i - 2)
        {
            if let Some(call_close) = matching_delim(toks, i + 1, close + 1, '(', ')') {
                if !chain_restores_order(toks, call_close, close) {
                    out.push((t.line, Source::HashMethod(word.to_string())));
                }
                i = call_close + 1;
                continue;
            }
        }
        // Hash iteration, loop form.
        if word == "for" {
            if let Some(line) = for_loop_over_hash(toks, i, close, symbols, fields) {
                out.push((line, Source::HashLoop));
            }
        }
        // Clock reads: `Instant::now(` / `SystemTime::now(`. Unlike
        // `no-ambient-authority` this has no config-module exemption — a
        // clock-derived *value* flowing into a reduction is
        // nondeterministic no matter where it was read.
        if (word == "Instant" || word == "SystemTime")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            out.push((t.line, Source::Clock(word.to_string())));
        }
        if is_mutex_vec(toks, i) {
            out.push((t.line, Source::ArrivalShape));
        }
        // Arrival-order push: `.lock()..push(..)` in one chain.
        if (word == "lock" || word == "write")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(mut chain_end) = matching_delim(toks, i + 1, close + 1, '(', ')') {
                // Skip guard adapters that keep the same value.
                while toks.get(chain_end + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(chain_end + 2)
                        .and_then(Tok::ident)
                        .is_some_and(|w| matches!(w, "unwrap" | "expect" | "unwrap_or_else"))
                    && toks.get(chain_end + 3).is_some_and(|t| t.is_punct('('))
                {
                    match matching_delim(toks, chain_end + 3, close + 1, '(', ')') {
                        Some(c) => chain_end = c,
                        None => break,
                    }
                }
                if toks.get(chain_end + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(chain_end + 2).is_some_and(|t| t.is_ident("push"))
                    && toks.get(chain_end + 3).is_some_and(|t| t.is_punct('('))
                {
                    out.push((t.line, Source::ArrivalPush));
                }
            }
        }
        i += 1;
    }
    out
}

/// If the `for` at `for_idx` loops directly over a hash symbol or over a
/// hash field of any receiver (`for x in &m {`, `for x in &cfg.weights {`),
/// returns the line to report. A chained call (`for x in m.keys() {`) is
/// the method form's, which may exonerate it.
fn for_loop_over_hash(
    toks: &[Tok],
    for_idx: usize,
    close: usize,
    symbols: &BTreeSet<String>,
    fields: &BTreeSet<String>,
) -> Option<u32> {
    // Find the `in` of this `for` before its body `{` (patterns never
    // contain `in`; parens in tuple patterns are fine to scan over).
    let mut j = for_idx + 1;
    while j <= close && !toks[j].is_ident("in") {
        if toks[j].is_punct('{') {
            return None;
        }
        j += 1;
    }
    // Strip `&`, `&mut`.
    let mut k = j + 1;
    while k <= close && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
        k += 1;
    }
    toks.get(k).and_then(Tok::ident)?;
    // `root(.field)*` running straight into the body `{`.
    let mut last = k;
    while toks.get(last + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(last + 2).and_then(Tok::ident).is_some()
    {
        last += 2;
    }
    if !toks.get(last + 1).is_none_or(|t| t.is_punct('{')) {
        return None;
    }
    let word = toks[last].ident()?;
    let hit = if last == k {
        symbols.contains(word)
    } else {
        fields.contains(word)
    };
    hit.then_some(toks[k].line)
}

/// Walks the method chain after a closing paren; true when the chain (or
/// the statement it feeds) restores a deterministic order: an explicit
/// sort, an order-insensitive terminal, or a collect into an ordered
/// collection that is sorted afterwards.
fn chain_restores_order(toks: &[Tok], mut call_close: usize, body_close: usize) -> bool {
    let mut last_method: Option<&str> = None;
    let mut collected_ordered = false;
    while toks.get(call_close + 1).is_some_and(|t| t.is_punct('.')) {
        let Some(name) = toks.get(call_close + 2).and_then(Tok::ident) else {
            break;
        };
        if SORT_METHODS.contains(&name) {
            return true;
        }
        let mut next = call_close + 3;
        // Optional turbofish: `::<BTreeMap<_, _>>`.
        if toks.get(next).is_some_and(|t| t.is_punct(':'))
            && toks.get(next + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(next + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut angle = 0i64;
            let mut k = next + 2;
            while k <= body_close {
                if toks[k].is_punct('<') {
                    angle += 1;
                } else if toks[k].is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                if name == "collect"
                    && toks[k]
                        .ident()
                        .is_some_and(|w| w == "BTreeMap" || w == "BTreeSet")
                {
                    return true;
                }
                if name == "collect" && toks[k].ident().is_some_and(|w| w == "Vec") {
                    collected_ordered = true;
                }
                k += 1;
            }
            next = k + 1;
        }
        if toks.get(next).is_some_and(|t| t.is_punct('(')) {
            match matching_delim(toks, next, body_close + 1, '(', ')') {
                Some(c) => call_close = c,
                None => break,
            }
        } else {
            call_close = next - 1;
        }
        last_method = Some(name);
    }
    if last_method.is_some_and(|m| ORDER_INSENSITIVE_TERMINALS.contains(&m)) {
        return true;
    }
    // `let [mut] v = <chain>;` (or `let v: BTree.. = <chain>;`): a
    // following `v.sort..()` in the same body exonerates — the canonical
    // collect-then-sort conversion. A collect into a BTree via the let
    // annotation also restores order.
    let stmt_end = statement_end(toks, call_close, body_close);
    let Some(name) = let_binding_before(toks, call_close) else {
        return false;
    };
    let annotated_ordered = toks[name + 1].is_punct(':')
        && (name + 2..call_close)
            .take_while(|&m| !toks[m].is_punct('='))
            .any(|m| {
                toks[m]
                    .ident()
                    .is_some_and(|w| w == "BTreeMap" || w == "BTreeSet")
            });
    if annotated_ordered {
        return true;
    }
    let binding = toks[name].text();
    (last_method == Some("collect") || collected_ordered)
        && (stmt_end..body_close.saturating_sub(1)).any(|k| {
            toks[k].is_ident(&binding)
                && toks[k + 1].is_punct('.')
                && toks[k + 2]
                    .ident()
                    .is_some_and(|w| SORT_METHODS.contains(&w))
        })
}

/// Order-sensitive float reductions in one function body.
fn collect_sinks(
    toks: &[Tok],
    f: &Item,
    (open, close): (usize, usize),
    out: &mut Vec<(u32, String)>,
) {
    let floats = float_symbols(toks, f);
    let loops = loop_ranges(toks, open, close);
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if let Some(word) = t.ident() {
            let method_call =
                i >= 1 && toks[i - 1].is_punct('.') && args_open_after(toks, i).is_some();
            if method_call && matches!(word, "sum" | "product" | "fold") {
                out.push((t.line, format!("order-sensitive `.{word}(..)` reduction")));
            }
            // `kernels::<entry>(..)` — the numeric kernels assume their
            // operands arrive in a deterministic order.
            if word == "kernels"
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(entry) = toks.get(i + 3).and_then(Tok::ident) {
                    if toks.get(i + 4).is_some_and(|t| t.is_punct('(')) {
                        out.push((t.line, format!("`kernels::{entry}(..)` entry point")));
                    }
                }
            }
        } else if t.is_punct('+')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('='))
            && loops.iter().any(|&(s, e)| i >= s && i <= e)
        {
            // `acc += ..` inside a loop, with float evidence on either side.
            let lhs_float = toks
                .get(i.wrapping_sub(1))
                .and_then(Tok::ident)
                .is_some_and(|w| floats.contains(w));
            let stmt_end = statement_end(toks, i + 2, close);
            let rhs_float = (i + 2..stmt_end).any(|k| {
                toks[k].ident().is_some_and(|w| floats.contains(w))
                    || is_float_literal(&toks[k].text())
            });
            if lhs_float || rhs_float {
                out.push((t.line, "float `+=` accumulation in a loop".to_string()));
            }
        }
        i += 1;
    }
}

/// Call-site names in one function body: `name(..)` plain calls and
/// `.name(..)` method calls. Resolution against the crate's function set
/// happens when edges are built, so keywords and foreign names fall out
/// naturally.
fn collect_calls(toks: &[Tok], (open, close): (usize, usize), out: &mut BTreeSet<String>) {
    for i in open..=close {
        if let Some(word) = toks[i].ident() {
            if args_open_after(toks, i).is_some() {
                out.insert(word.to_string());
            }
        }
    }
}

/// Index of the argument-list `(` for a call whose name ends at token `i`,
/// skipping an optional `::<..>` turbofish (`sum::<f64>()`,
/// `fold::<Vec<f64>, _>(..)`). `None` when no call follows.
fn args_open_after(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0usize;
        j += 2;
        while let Some(t) = toks.get(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
            if j > i + 64 {
                return None; // not a plausible turbofish
            }
        }
    }
    toks.get(j).is_some_and(|t| t.is_punct('(')).then_some(j)
}

/// Builds the crate's call graph and reports every (tainted source fn,
/// sink fn) pair connected by it.
fn analyze_crate(files: &[ParsedFile], fns: &[FnFacts], findings: &mut Vec<Finding>) {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        for name in &f.calls {
            for &j in by_name.get(name.as_str()).map_or(&[][..], |v| v) {
                if j != i {
                    callees[i].push(j);
                    callers[j].push(i);
                }
            }
        }
    }

    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (k, f) in fns.iter().enumerate() {
        if f.sinks.is_empty() {
            continue;
        }
        // Return flow (sink fn calls a tainted fn) and argument flow (a
        // tainted fn calls the sink fn). `reach` paths run sink-first;
        // reversing yields the data direction, source → sink.
        for edges in [&callees, &callers] {
            for (t, path) in reach(k, edges, fns) {
                if reported.insert((t, k)) {
                    let chain: Vec<&str> =
                        path.iter().rev().map(|&i| fns[i].name.as_str()).collect();
                    findings.push(taint_finding(files, &fns[t], f, &chain));
                }
            }
        }
    }
}

/// BFS from `start` over `edges`, returning every reachable tainted
/// function together with the (shortest) node path from `start`,
/// inclusive of both ends.
fn reach(start: usize, edges: &[Vec<usize>], fns: &[FnFacts]) -> Vec<(usize, Vec<usize>)> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    let mut seen = BTreeSet::from([start]);
    let mut hits = Vec::new();
    while let Some(n) = queue.pop_front() {
        for &m in &edges[n] {
            if seen.contains(&m) {
                continue;
            }
            seen.insert(m);
            parent.insert(m, n);
            if !fns[m].sources.is_empty() {
                let mut path = vec![m];
                let mut cur = m;
                while let Some(&p) = parent.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse(); // start .. m
                hits.push((m, path));
            }
            queue.push_back(m);
        }
    }
    hits
}

/// The determinism-taint finding for the (source fn, sink fn) pair,
/// reported at the sink and anchored at the source too; `chain` runs
/// source → sink.
fn taint_finding(files: &[ParsedFile], src: &FnFacts, sink: &FnFacts, chain: &[&str]) -> Finding {
    let (source_line, source) = &src.sources[0];
    let (sink_line, sink_desc) = &sink.sinks[0];
    let src_rel = &files[src.file].rel;
    let mut f = Finding::new(
        DETERMINISM_TAINT,
        files[sink.file].rel.clone(),
        *sink_line,
        format!(
            "{sink_desc} can consume a nondeterministically-ordered value: {} in `{}` ({}:{}) \
             flows through `{}` (DESIGN.md §8); sort or slot-index the data before \
             reducing, or waive at either end of the path",
            source.desc(),
            src.name,
            src_rel,
            source_line,
            chain.join(" -> "),
        ),
    );
    f.source = Some((src_rel.clone(), *source_line));
    f
}

// ---------------------------------------------------------------------------
// Hot-path item rules (per file).
// ---------------------------------------------------------------------------

/// Runs `no-lossy-cast-in-hot-path` and `no-unchecked-index-arith` over
/// the non-test functions of one file, scoped by [`FileClass`].
pub(crate) fn lint_hot_path_items(file: &ParsedFile, findings: &mut Vec<Finding>) {
    let class = &file.class;
    if !class.hot_path && !class.chunk_deal {
        return;
    }
    for (f, body) in file.fn_bodies() {
        if class.hot_path {
            find_lossy_casts(&file.toks, f, body, &file.rel, findings);
        }
        if class.chunk_deal {
            find_index_arith(&file.toks, body, &file.rel, findings);
        }
    }
}

/// `as f32` anywhere, and float-evident `as <int>`, in one hot-path fn.
fn find_lossy_casts(
    toks: &[Tok],
    f: &Item,
    (open, close): (usize, usize),
    rel_path: &str,
    findings: &mut Vec<Finding>,
) {
    let floats = float_symbols(toks, f);
    for i in open..=close {
        if !toks[i].is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1).and_then(Tok::ident) else {
            continue;
        };
        if ty == "f32" {
            findings.push(Finding::new(
                NO_LOSSY_CAST_IN_HOT_PATH,
                rel_path,
                toks[i].line,
                "`as f32` narrows to single precision in a hot-path kernel; the lost \
                 bits change sums silently — keep f64, or waive with the kernel's \
                 precision contract",
            ));
        } else if INT_CAST_TARGETS.contains(&ty) && operand_is_float(toks, i, open, &floats) {
            findings.push(Finding::new(
                NO_LOSSY_CAST_IN_HOT_PATH,
                rel_path,
                toks[i].line,
                format!(
                    "float `as {ty}` truncates silently in a hot-path kernel (NaN and \
                     out-of-range collapse to arbitrary values); round explicitly and \
                     bounds-check, or waive with justification"
                ),
            ));
        }
    }
}

/// Whether the expression ending just before the `as` at `as_idx` is
/// float-evident: a tracked float symbol, a float literal, a call of a
/// float-returning method, a float receiver's method result, or a
/// parenthesized/indexed expression mentioning either.
fn operand_is_float(toks: &[Tok], as_idx: usize, open: usize, floats: &BTreeSet<String>) -> bool {
    let Some(prev) = as_idx.checked_sub(1).filter(|&p| p >= open) else {
        return false;
    };
    let t = &toks[prev];
    if let Some(w) = t.ident() {
        return floats.contains(w);
    }
    if is_float_literal(&t.text()) {
        return true;
    }
    if t.is_punct(')') {
        let Some(po) = open_before(toks, prev, open, '(', ')') else {
            return false;
        };
        // `(expr) as ..` — anything float-evident inside the parens.
        if (po + 1..prev).any(|k| {
            toks[k].ident().is_some_and(|w| floats.contains(w)) || is_float_literal(&toks[k].text())
        }) {
            return true;
        }
        // `recv.method(..) as ..` — a float method, or a float receiver.
        if po >= 1 {
            if let Some(m) = toks[po - 1].ident() {
                if FLOAT_METHODS.contains(&m) {
                    return true;
                }
                if po >= 3 && toks[po - 2].is_punct('.') {
                    if let Some(r) = toks[po - 3].ident() {
                        return floats.contains(r);
                    }
                }
            }
        }
        return false;
    }
    if t.is_punct(']') {
        // `v[i] as ..` — indexing into a float slice.
        let Some(bo) = open_before(toks, prev, open, '[', ']') else {
            return false;
        };
        return bo >= 1 && toks[bo - 1].ident().is_some_and(|w| floats.contains(w));
    }
    false
}

/// Index of the opener matching the closer at `close_idx`, scanning
/// backwards no further than `floor`.
fn open_before(
    toks: &[Tok],
    close_idx: usize,
    floor: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i64;
    let mut k = close_idx;
    loop {
        if toks[k].is_punct(close) {
            depth += 1;
        } else if toks[k].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == floor {
            return None;
        }
        k -= 1;
    }
}

/// Raw binary `-` at top level inside a slice-index expression.
fn find_index_arith(
    toks: &[Tok],
    (open, close): (usize, usize),
    rel_path: &str,
    findings: &mut Vec<Finding>,
) {
    for i in open..=close {
        if !toks[i].is_punct('[') {
            continue;
        }
        // Indexing, not an array/slice literal or a type: the expression
        // before the bracket must be a value (`ident[..]`, `call()[..]`,
        // `v[i][..]`).
        let indexing = i >= 1
            && (toks[i - 1].ident().is_some()
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'));
        if !indexing {
            continue;
        }
        let Some(bclose) = matching_delim(toks, i, close + 1, '[', ']') else {
            continue;
        };
        let mut paren = 0i64;
        let mut bracket = 0i64;
        for k in i + 1..bclose {
            let t = &toks[k];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if t.is_punct('-') && paren == 0 && bracket == 0 {
                // Binary minus only: `i - 1`, not unary `-x` after an
                // operator or an opener.
                let binary = k >= 1
                    && (toks[k - 1].ident().is_some()
                        || toks[k - 1].is_punct(')')
                        || toks[k - 1].is_punct(']')
                        || toks[k - 1].text().chars().all(|c| c.is_ascii_digit()))
                    && !toks[k - 1].is_ident("return");
                if binary {
                    findings.push(Finding::new(
                        NO_UNCHECKED_INDEX_ARITH,
                        rel_path,
                        t.line,
                        "subtraction inside a slice index can wrap below zero (usize): \
                         a panic in debug, a wild index in release; use \
                         `checked_sub`/`saturating_sub` or restructure the chunk math",
                    ));
                }
            }
        }
    }
}

/// Identifiers in one function known to hold floats: bindings whose type
/// annotation mentions `f64`/`f32` (including slices and references) and
/// `let`s initialized from a float literal.
fn float_symbols(toks: &[Tok], f: &Item) -> BTreeSet<String> {
    let floaty = |b: &Binding| {
        (b.range.0..b.range.1).any(|k| {
            if b.annotated {
                toks[k].ident().is_some_and(|w| w == "f64" || w == "f32")
            } else {
                is_float_literal(&toks[k].text())
            }
        })
    };
    fn_bindings(toks, f)
        .into_iter()
        .filter(floaty)
        .map(|b| b.name.to_string())
        .collect()
}

/// Token-index ranges of `for`/`while` loop bodies inside one fn body.
fn loop_ranges(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in open..=close {
        let looping = toks[i]
            .ident()
            .is_some_and(|w| w == "for" || w == "while" || w == "loop");
        if looping {
            // Body `{` is the first brace at paren/bracket depth 0 after
            // the keyword (closure braces in the header sit inside parens).
            let mut paren = 0i64;
            let mut bracket = 0i64;
            let mut j = i + 1;
            while j <= close {
                let t = &toks[j];
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren -= 1;
                } else if t.is_punct('[') {
                    bracket += 1;
                } else if t.is_punct(']') {
                    bracket -= 1;
                } else if t.is_punct('{') && paren == 0 && bracket == 0 {
                    if let Some(bclose) = matching_delim(toks, j, close + 1, '{', '}') {
                        out.push((j, bclose));
                    }
                    break;
                } else if t.is_punct(';') && paren == 0 && bracket == 0 {
                    break; // not a loop header after all
                }
                j += 1;
            }
        }
    }
    out
}

/// A numeric literal with a fractional part or an explicit float suffix.
fn is_float_literal(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_ascii_digit())
        && (text.contains('.') || text.ends_with("f32") || text.ends_with("f64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::lex;
    use crate::rules::{lint_files, lint_rust_source, STALE_WAIVER};

    const KERN: &str = "crates/cs-linalg/src/kernels.rs";
    const DET: &str = "crates/cs-repro/src/fake.rs";
    const CORE: &str = "crates/cs-core/src/fake.rs";

    /// The taint and stale-waiver findings of a full lint over `files`,
    /// waivers resolved.
    fn taint(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(s, p)).collect();
        lint_files(&parsed)
            .into_iter()
            .filter(|f| f.rule == DETERMINISM_TAINT || f.rule == STALE_WAIVER)
            .collect()
    }

    fn fired(src: &str, path: &str) -> Vec<&'static str> {
        lint_rust_source(src, path)
            .into_iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hashmap_for_loop_fires_in_det_scope() {
        let src = "use std::collections::HashMap;\n\
                   fn emit(m: &HashMap<String, f64>) -> f64 {\n\
                       let mut total = 0.0;\n\
                       for (_, v) in m { total += v; }\n\
                       total\n\
                   }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
        // Same code outside the deterministic-pipeline crates: clean.
        assert!(fired(src, "crates/cs-nn/src/fake.rs").is_empty());
        // Test code is exempt.
        let test_src = format!("#[cfg(test)]\nmod t {{ {src} }}");
        assert!(fired(&test_src, DET).is_empty());
    }

    #[test]
    fn hashmap_iter_sum_fires() {
        let src = "use std::collections::HashMap;\n\
                   fn total(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
    }

    #[test]
    fn order_insensitive_terminals_are_clean() {
        let src = "use std::collections::HashMap;\n\
                   fn n(m: &HashMap<u32, f64>) -> usize { m.keys().count() }\n\
                   fn has(m: &HashMap<u32, f64>) -> bool { m.values().any(|v| *v > 0.0) }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn explicit_sort_in_chain_is_clean() {
        let src = "use std::collections::HashSet;\n\
                   fn ordered(s: &HashSet<String>) -> Vec<String> {\n\
                       let mut v: Vec<String> = s.iter().cloned().collect();\n\
                       v.sort();\n\
                       v\n\
                   }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn collect_into_btree_is_clean() {
        let src = "use std::collections::{BTreeMap, HashMap};\n\
                   fn ordered(m: &HashMap<String, f64>) -> BTreeMap<String, f64> {\n\
                       m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<String, f64>>()\n\
                   }";
        assert!(fired(src, DET).is_empty());
        let src = "use std::collections::{BTreeMap, HashMap};\n\
                   fn ordered(m: &HashMap<String, f64>) -> BTreeMap<String, f64> {\n\
                       let out: BTreeMap<String, f64> = m.iter().map(|(k, v)| (k.clone(), *v)).collect();\n\
                       out\n\
                   }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "use std::collections::BTreeMap;\n\
                   fn total(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn let_binding_from_new_is_tracked() {
        let src = "use std::collections::HashMap;\n\
                   fn f() -> f64 {\n\
                       let mut h: HashMap<u32, f64> = HashMap::new();\n\
                       h.insert(1, 2.0);\n\
                       let mut acc = 0.0;\n\
                       for (_, v) in &h { acc += v; }\n\
                       acc\n\
                   }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
    }

    #[test]
    fn struct_field_iteration_fires() {
        let src = "use std::collections::HashMap;\n\
                   pub struct Hist { counts: HashMap<String, usize> }\n\
                   impl Hist {\n\
                       pub fn emit(&self) -> String {\n\
                           let mut out = String::new();\n\
                           for (k, v) in &self.counts { out.push_str(k); }\n\
                           out\n\
                       }\n\
                   }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
    }

    #[test]
    fn unordered_iteration_is_waivable() {
        let src = "use std::collections::HashMap;\n\
                   fn total(m: &HashMap<u32, f64>) -> f64 {\n\
                       // cs-lint: allow(no-unordered-iteration) -- commutative integer fold\n\
                       m.values().sum()\n\
                   }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn aliased_hash_import_is_tracked() {
        let src = "use std::collections::HashMap as Weights;\n\
                   fn f(w: &Weights<u32, f64>) -> f64 { w.values().sum() }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
        let src = "use std::collections::{hash_set::HashSet as Seen};\n\
                   fn f(s: Seen<u32>) -> u32 { let mut n = 0; for x in s { n ^= x; } n }";
        assert_eq!(fired(src, DET), vec![NO_UNORDERED_ITERATION]);
        // An alias of an ordered collection stays clean.
        let src = "use std::collections::BTreeMap as Weights;\n\
                   fn f(w: &Weights<u32, f64>) -> f64 { w.values().sum() }";
        assert!(fired(src, DET).is_empty());
    }

    #[test]
    fn for_loop_over_hash_field_of_any_receiver_fires() {
        let src = "use std::collections::HashMap;\n\
                   pub struct Cfg { weights: HashMap<String, f64> }\n\
                   pub fn total(cfg: &Cfg) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       for (_, v) in &cfg.weights { acc += v; }\n\
                       acc\n\
                   }";
        let findings = lint_rust_source(src, DET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            (findings[0].rule, findings[0].line),
            (NO_UNORDERED_ITERATION, 5)
        );
        // The same loop over an ordered field is clean.
        let ordered = src.replace("HashMap", "BTreeMap");
        assert!(fired(&ordered, DET).is_empty());
    }

    #[test]
    fn mutex_vec_fires_only_in_core_lib() {
        let src = "use std::sync::Mutex;\nstruct Acc { results: Mutex<Vec<f64>> }";
        assert_eq!(fired(src, CORE), vec![NO_ARRIVAL_ORDER_REDUCE]);
        // Other crates may still use the pattern.
        assert!(fired(src, "crates/cs-match/src/fake.rs").is_empty());
        // Test code in cs-core is exempt.
        let test_src = format!("#[cfg(test)] mod tests {{ {src} }}");
        assert!(fired(&test_src, CORE).is_empty());
    }

    #[test]
    fn mutex_vec_bindings_and_pushes_fire_in_core_lib() {
        let src = "use std::sync::Mutex;\n\
                   static LOG: Mutex<Vec<f64>> = Mutex::new(Vec::new());\n\
                   pub fn gather(acc: &Mutex<Vec<f64>>) {\n\
                       let local: Mutex<Vec<f64>> = Mutex::new(Vec::new());\n\
                       local.lock().unwrap_or_else(|p| p.into_inner()).push(1.0);\n\
                   }";
        let lines: Vec<(&str, u32)> = lint_rust_source(src, CORE)
            .iter()
            .map(|f| (f.rule, f.line))
            .collect();
        let arrival = NO_ARRIVAL_ORDER_REDUCE;
        assert_eq!(
            lines,
            vec![(arrival, 2), (arrival, 3), (arrival, 4), (arrival, 5)]
        );
    }

    #[test]
    fn mutex_of_non_vec_is_clean() {
        // The pool's own `Mutex<mpsc::Receiver<..>>` shape must not fire.
        let src = "use std::sync::Mutex;\nstruct P { rx: Mutex<std::sync::mpsc::Receiver<u8>> }";
        assert!(fired(src, CORE).is_empty());
        assert!(fired("fn f(m: &std::sync::Mutex<usize>) {}", CORE).is_empty());
    }

    #[test]
    fn mutex_vec_is_waivable() {
        let src = "struct Acc {\n    // cs-lint: allow(no-arrival-order-reduce) -- order never reaches output\n    results: std::sync::Mutex<Vec<f64>>,\n}";
        assert!(fired(src, CORE).is_empty());
    }

    #[test]
    fn clock_source_flows_cross_file_into_sum() {
        // The designed gap: config.rs may *read* the clock (ambient
        // exemption), but the value must not escape into a reduction.
        let config = "use std::time::Instant;\n\
                      pub fn jitter_seed() -> f64 {\n\
                          Instant::now().elapsed().as_secs_f64()\n\
                      }";
        let agg = "pub fn accumulate(xs: &[f64]) -> f64 {\n\
                       let j = crate::config::jitter_seed();\n\
                       xs.iter().map(|x| x + j).sum()\n\
                   }";
        let findings = taint(&[
            ("crates/cs-fake/src/config.rs", config),
            ("crates/cs-fake/src/agg.rs", agg),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, DETERMINISM_TAINT);
        assert_eq!(f.file, "crates/cs-fake/src/agg.rs");
        assert_eq!(f.line, 3);
        assert!(!f.waived);
        assert!(
            f.message.contains("jitter_seed -> accumulate"),
            "{}",
            f.message
        );
        assert!(f.message.contains("Instant::now"), "{}", f.message);
        assert!(f.message.contains("config.rs:3"), "{}", f.message);
    }

    #[test]
    fn hash_source_flows_down_into_callee_sink() {
        // Argument flow: the tainted fn calls the sink fn.
        let a = "use std::collections::HashMap;\n\
                 pub fn spread(m: &HashMap<u32, f64>) -> f64 {\n\
                     let mut vals = Vec::new();\n\
                     for (_, v) in m { vals.push(*v); }\n\
                     crate::reduce::total(&vals)\n\
                 }";
        let b = "pub fn total(xs: &[f64]) -> f64 { xs.iter().sum() }";
        let findings = taint(&[
            ("crates/cs-fake/src/a.rs", a),
            ("crates/cs-fake/src/reduce.rs", b),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.file, "crates/cs-fake/src/reduce.rs");
        assert!(f.message.contains("spread -> total"), "{}", f.message);
        assert!(f.message.contains("`for` over a HashMap"), "{}", f.message);
    }

    #[test]
    fn turbofish_sum_is_still_a_sink() {
        // `.sum::<f64>()` must match like `.sum()`, and a call made with a
        // turbofish must still register as a call-graph edge.
        let src = "use std::collections::HashMap;\n\
                   fn seed(m: &HashMap<u32, f64>) -> f64 {\n\
                       m.values().copied().next().unwrap_or(0.0)\n\
                   }\n\
                   fn total(m: &HashMap<u32, f64>) -> f64 {\n\
                       let xs = [seed::<>(m); 4];\n\
                       xs.iter().sum::<f64>()\n\
                   }";
        let findings = taint(&[("crates/cs-fake/src/a.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("seed -> total"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn multi_hop_chain_is_reported_in_full() {
        let src = "use std::time::Instant;\n\
                   fn leaf() -> f64 { Instant::now().elapsed().as_secs_f64() }\n\
                   fn mid() -> f64 { leaf() * 2.0 }\n\
                   fn top(xs: &[f64]) -> f64 { xs.iter().fold(mid(), |a, x| a + x) }";
        let findings = taint(&[("crates/cs-fake/src/chain.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("leaf -> mid -> top"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn same_fn_source_and_sink_is_left_to_intra_rules() {
        let src = "use std::collections::HashMap;\n\
                   pub fn total(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }";
        assert!(taint(&[("crates/cs-fake/src/one.rs", src)]).is_empty());
    }

    #[test]
    fn exonerated_iteration_is_not_a_source() {
        let src = "use std::collections::HashMap;\n\
                   pub fn keys_sorted(m: &HashMap<String, f64>) -> Vec<String> {\n\
                       let mut v: Vec<String> = m.keys().cloned().collect();\n\
                       v.sort();\n\
                       v\n\
                   }\n\
                   pub fn count(m: &HashMap<String, f64>) -> f64 {\n\
                       keys_sorted(m).iter().map(|k| k.len() as f64).sum()\n\
                   }";
        assert!(taint(&[("crates/cs-fake/src/ok.rs", src)]).is_empty());
    }

    #[test]
    fn lock_push_source_reaches_kernel_entry() {
        let src = "use std::sync::Mutex;\n\
                   pub fn gather(acc: &Mutex<Vec<f64>>, v: f64) {\n\
                       acc.lock().unwrap().push(v);\n\
                   }\n\
                   pub fn finish(acc: &Mutex<Vec<f64>>, out: &mut [f64]) {\n\
                       gather(acc, 1.0);\n\
                       kernels::axpy(out);\n\
                   }";
        let findings = taint(&[("crates/cs-fake/src/gath.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("arrival-order `.push(..)`"),
            "{}",
            findings[0].message
        );
        assert!(
            findings[0].message.contains("kernels::axpy"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn waiver_at_sink_suppresses_and_is_not_stale() {
        let config = "use std::time::Instant;\n\
                      pub fn seed() -> f64 { Instant::now().elapsed().as_secs_f64() }";
        let agg = "pub fn acc(xs: &[f64]) -> f64 {\n\
                       let j = crate::config::seed();\n\
                       // cs-lint: allow(determinism-taint) -- seed is logged, not summed into outputs\n\
                       xs.iter().map(|x| x + j).sum()\n\
                   }";
        let findings = taint(&[
            ("crates/cs-fake/src/config.rs", config),
            ("crates/cs-fake/src/agg.rs", agg),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].waived);
    }

    #[test]
    fn waiver_at_source_suppresses_too() {
        let config = "use std::time::Instant;\n\
                      pub fn seed() -> f64 {\n\
                          // cs-lint: allow(determinism-taint) -- wall-clock jitter is the feature here\n\
                          Instant::now().elapsed().as_secs_f64()\n\
                      }";
        let agg = "pub fn acc(xs: &[f64]) -> f64 {\n\
                       let j = crate::config::seed();\n\
                       xs.iter().map(|x| x + j).sum()\n\
                   }";
        let findings = taint(&[
            ("crates/cs-fake/src/config.rs", config),
            ("crates/cs-fake/src/agg.rs", agg),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].waived);
    }

    #[test]
    fn dangling_taint_waiver_is_stale() {
        let src = "pub fn plain(xs: &[f64]) -> f64 {\n\
                       // cs-lint: allow(determinism-taint) -- left behind\n\
                       xs.iter().sum()\n\
                   }";
        let findings = taint(&[("crates/cs-fake/src/x.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, STALE_WAIVER);
        assert_eq!(findings[0].line, 2);
        assert!(!findings[0].waived);
    }

    #[test]
    fn test_files_and_bench_crate_are_out_of_scope() {
        let src = "use std::time::Instant;\n\
                   fn t() -> f64 { Instant::now().elapsed().as_secs_f64() }\n\
                   fn s(xs: &[f64]) -> f64 { xs.iter().fold(t(), |a, x| a + x) }";
        assert!(taint(&[("crates/cs-core/tests/x.rs", src)]).is_empty());
        assert!(taint(&[("crates/cs-bench/src/x.rs", src)]).is_empty());
        // In a test region of a lib file, same story.
        let gated = format!("#[cfg(test)]\nmod t {{ {src} }}");
        assert!(taint(&[("crates/cs-fake/src/y.rs", gated.as_str())]).is_empty());
    }

    #[test]
    fn lossy_casts_fire_only_in_hot_path() {
        let narrow = "pub fn demote(x: f64) -> f32 { x as f32 }";
        assert_eq!(fired(narrow, KERN), vec![NO_LOSSY_CAST_IN_HOT_PATH]);
        assert!(fired(narrow, "crates/cs-match/src/fake.rs").is_empty());

        let trunc = "pub fn bucket(x: f64) -> usize { x as usize }";
        assert_eq!(fired(trunc, KERN), vec![NO_LOSSY_CAST_IN_HOT_PATH]);

        // Int→float widening and int→int casts stay silent.
        let ok = "pub fn widen(n: usize) -> f64 { n as f64 }\n\
                  pub fn shrink(n: u64) -> u32 { n as u32 }";
        assert!(fired(ok, KERN).is_empty());

        // Float evidence through parens, indexing, and float methods.
        let paren = "pub fn f(x: f64, s: f64) -> usize { (x * s) as usize }";
        assert_eq!(fired(paren, KERN), vec![NO_LOSSY_CAST_IN_HOT_PATH]);
        let index = "pub fn g(v: &[f64], i: usize) -> u32 { v[i] as u32 }";
        assert_eq!(fired(index, KERN), vec![NO_LOSSY_CAST_IN_HOT_PATH]);
        let method = "pub fn h(x: f64) -> i64 { x.round() as i64 }";
        assert_eq!(fired(method, KERN), vec![NO_LOSSY_CAST_IN_HOT_PATH]);

        // Waivable with justification.
        let waived = "pub fn demote(x: f64) -> f32 {\n\
                      // cs-lint: allow(no-lossy-cast-in-hot-path) -- f32-accumulator kernel by design\n\
                      x as f32\n\
                      }";
        assert!(fired(waived, KERN).is_empty());
    }

    #[test]
    fn index_arith_fires_in_chunk_deal_scope() {
        let src = "pub fn last(v: &[f64], n: usize) -> f64 { v[n - 1] }";
        assert_eq!(fired(src, KERN), vec![NO_UNCHECKED_INDEX_ARITH]);
        assert!(fired(src, "crates/cs-linalg/src/stats.rs").is_empty());

        // checked_sub has no raw `-`: clean by construction.
        let ok = "pub fn last(v: &[f64], n: usize) -> f64 {\n\
                      v[n.checked_sub(1).unwrap_or(0)]\n\
                  }";
        assert!(fired(ok, KERN).is_empty());

        // Subtraction buried in a nested call is not index arithmetic.
        let nested = "pub fn f(v: &[f64], a: usize, b: usize) -> f64 { v[offset(a - b)] }";
        assert!(fired(nested, KERN)
            .iter()
            .all(|r| *r != NO_UNCHECKED_INDEX_ARITH));

        // Array type annotations and literals stay silent.
        let ty = "pub fn f() -> [f64; 4] { let x: [f64; 4] = [0.0; 4]; x }";
        assert!(fired(ty, KERN).is_empty());
    }

    #[test]
    fn float_symbols_track_params_and_lets() {
        let toks =
            lex("fn f(a: f64, v: &[f64], n: usize) { let mut acc = 0.0; let k = 3; }").tokens;
        let parsed = items::parse_items(&toks);
        let mut fns = Vec::new();
        items::for_each_fn(&parsed, &mut |f| fns.push(f));
        let floats = float_symbols(&toks, fns[0]);
        assert!(floats.contains("a") && floats.contains("v") && floats.contains("acc"));
        assert!(!floats.contains("n") && !floats.contains("k"));
    }

    #[test]
    fn float_accumulation_loop_is_a_sink() {
        let src = "use std::collections::HashMap;\n\
                   pub fn feed(m: &HashMap<u32, f64>) -> Vec<f64> {\n\
                       let mut out = Vec::new();\n\
                       for v in m.values() { out.push(*v); }\n\
                       out\n\
                   }\n\
                   pub fn drain(m: &HashMap<u32, f64>) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       for v in feed(m) { acc += v; }\n\
                       acc\n\
                   }";
        let findings = taint(&[("crates/cs-fake/src/accl.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("float `+=` accumulation"),
            "{}",
            findings[0].message
        );
        assert!(findings[0].message.contains("feed -> drain"));
    }

    #[test]
    fn integer_accumulation_is_not_a_sink() {
        let src = "use std::collections::HashMap;\n\
                   pub fn feed(m: &HashMap<u32, u64>) -> Vec<u64> {\n\
                       let mut out = Vec::new();\n\
                       for v in m.values() { out.push(*v); }\n\
                       out\n\
                   }\n\
                   pub fn drain(m: &HashMap<u32, u64>) -> u64 {\n\
                       let mut acc = 0;\n\
                       for v in feed(m) { acc += v; }\n\
                       acc\n\
                   }";
        assert!(taint(&[("crates/cs-fake/src/acci.rs", src)]).is_empty());
    }
}
