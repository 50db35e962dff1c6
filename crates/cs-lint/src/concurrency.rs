//! The determinism & concurrency rule pack (DESIGN.md §7/§8).
//!
//! These rules are *item-level*: they consume the brace tree from
//! [`crate::items`] and reason per function body instead of over the flat
//! token stream —
//!
//! - [`crate::rules::NO_UNORDERED_ITERATION`] — iterating a
//!   `HashMap`/`HashSet` in the deterministic-pipeline crates, where
//!   arrival at a float reduction or a serialized emitter makes output
//!   depend on hasher state,
//! - [`crate::rules::NO_AMBIENT_AUTHORITY`] — `std::env::var`,
//!   `Instant::now`, `SystemTime::now` outside the designated config /
//!   bench modules,
//! - [`crate::rules::LOCK_DISCIPLINE`] — acquiring a second
//!   `Mutex`/`RwLock` guard while another may still be live within one
//!   function body of `cs_linalg::pool` or `cs-embed`.
//!
//! All three are heuristic by design (no type inference), tuned so the
//! shipped tree is clean without waivers and every false positive has a
//! cheap local fix (an ordered collection, an explicit sort, a justified
//! waiver).

use std::collections::BTreeSet;

use crate::items::{for_each_fn, Item, ItemKind, UseMap};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::rules::{FileClass, LOCK_DISCIPLINE, NO_AMBIENT_AUTHORITY, NO_UNORDERED_ITERATION};

/// Iterator-producing methods on hash collections whose order is
/// hasher-dependent.
pub(crate) const ITER_METHODS: [&str; 9] = [
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
/// addition is order-sensitive, which is this rule's whole point).
const ORDER_INSENSITIVE_TERMINALS: [&str; 3] = ["count", "any", "all"];

/// Ordered collections a `collect` may target to restore determinism.
const ORDERED_COLLECTIONS: [&str; 3] = ["BTreeMap", "BTreeSet", "Vec"];

/// Runs the item-level pack over one file. `toks`/`items`/`uses` come from
/// the caller so the stream is lexed and parsed once per file.
pub fn lint_items(
    toks: &[Tok],
    items: &[Item],
    uses: &UseMap,
    class: &FileClass,
    rel_path: &str,
    test_regions: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    let in_test =
        |idx: usize| class.test_code || test_regions.iter().any(|&(s, e)| idx >= s && idx <= e);

    if class.det_scope {
        let hash_names = hash_type_names(uses);
        let fields = hash_fields(toks, items, &hash_names);
        let mut fns = Vec::new();
        for_each_fn(items, &mut |f| fns.push(f));
        for f in &fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            if in_test(open) {
                continue;
            }
            let symbols = hash_symbols(toks, f, &hash_names);
            if symbols.is_empty() && fields.is_empty() {
                continue;
            }
            find_unordered_iterations(toks, (open, close), &symbols, &fields, rel_path, findings);
        }
    }

    if !class.ambient_exempt {
        find_ambient_authority(toks, uses, rel_path, &in_test, findings);
    }

    if class.lock_scope {
        let mut fns = Vec::new();
        for_each_fn(items, &mut |f| fns.push(f));
        for f in &fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            if in_test(open) {
                continue;
            }
            find_nested_locks(toks, (open, close), rel_path, findings);
        }
    }
}

/// Local names that denote `std::collections::HashMap` / `HashSet`
/// (imports and aliases), always including the literal names themselves —
/// fully-qualified mentions keep the bare ident in the token stream.
pub(crate) fn hash_type_names(uses: &UseMap) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    names.insert("HashMap".to_string());
    names.insert("HashSet".to_string());
    for target in ["HashMap", "HashSet"] {
        for alias in ["Map", "Set", "Index", "Buckets", "Cache", "Lookup"] {
            if uses.names_type(alias, target, &["std::collections", "collections"]) {
                names.insert(alias.to_string());
            }
        }
    }
    names
}

/// True when the *outer* type in `range` is a hash collection: the last
/// ident before the first `<` (path segments allowed, references skipped).
/// `Vec<HashMap<..>>` is ordered at the iteration boundary and must not
/// match; `&HashMap<..>` and `std::collections::HashMap<..>` must.
fn outer_is_hash(toks: &[Tok], range: (usize, usize), names: &BTreeSet<String>) -> bool {
    let mut last: Option<&str> = None;
    for t in &toks[range.0..range.1.min(toks.len())] {
        if t.is_punct('<') {
            break;
        }
        if let Some(w) = t.ident() {
            last = Some(w);
        }
    }
    last.is_some_and(|w| names.contains(w))
}

/// Struct fields (file-wide) whose declared type is a hash collection.
pub(crate) fn hash_fields(
    toks: &[Tok],
    items: &[Item],
    names: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    collect_hash_fields(toks, items, names, &mut fields);
    fields
}

fn collect_hash_fields(
    toks: &[Tok],
    items: &[Item],
    names: &BTreeSet<String>,
    fields: &mut BTreeSet<String>,
) {
    for item in items {
        if matches!(item.kind, ItemKind::Struct | ItemKind::Union) {
            if let Some((open, close)) = item.body {
                // Fields: `name : Type ,` split at depth-0 commas.
                let mut i = open + 1;
                while i < close {
                    // Skip field attributes and visibility.
                    while i < close && (toks[i].is_punct('#') || toks[i].is_ident("pub")) {
                        if toks[i].is_punct('#') {
                            match seek_close(toks, i + 1, close, '[', ']') {
                                Some(e) => i = e + 1,
                                None => return,
                            }
                        } else {
                            i += 1;
                            if i < close && toks[i].is_punct('(') {
                                match seek_close(toks, i, close, '(', ')') {
                                    Some(e) => i = e + 1,
                                    None => return,
                                }
                            }
                        }
                    }
                    let Some(name) = toks.get(i).and_then(Tok::ident) else {
                        i += 1;
                        continue;
                    };
                    if toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
                        let ty_start = i + 2;
                        let ty_end = field_end(toks, ty_start, close);
                        if outer_is_hash(toks, (ty_start, ty_end), names) {
                            fields.insert(name.to_string());
                        }
                        i = ty_end + 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        collect_hash_fields(toks, &item.children, names, fields);
    }
}

/// Index of the depth-0 `,` (or `close`) ending a struct field's type.
fn field_end(toks: &[Tok], start: usize, close: usize) -> usize {
    let mut angle = 0i64;
    let mut paren = 0i64;
    let mut bracket = 0i64;
    for (k, t) in toks.iter().enumerate().take(close).skip(start) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct(',') && angle <= 0 && paren == 0 && bracket == 0 {
            return k;
        }
    }
    close
}

pub(crate) fn seek_close(
    toks: &[Tok],
    open_idx: usize,
    end: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(end).skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Identifiers in one function known to hold a hash collection: annotated
/// parameters, `let` bindings with a hash type annotation, and `let`
/// bindings initialized from `HashName::..`.
pub(crate) fn hash_symbols(toks: &[Tok], f: &Item, names: &BTreeSet<String>) -> BTreeSet<String> {
    let mut symbols = BTreeSet::new();
    let (sig_start, sig_end) = f.sig;

    // Parameters: inside the signature's top-level parens.
    if let Some(open) = (sig_start..sig_end).find(|&k| toks[k].is_punct('(')) {
        if let Some(close) = seek_close(toks, open, sig_end, '(', ')') {
            let mut i = open + 1;
            while i < close {
                let Some(name) = toks.get(i).and_then(Tok::ident) else {
                    i += 1;
                    continue;
                };
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
                    let ty_start = i + 2;
                    let ty_end = field_end(toks, ty_start, close);
                    if outer_is_hash(toks, (ty_start, ty_end), names) {
                        symbols.insert(name.to_string());
                    }
                    i = ty_end + 1;
                } else {
                    i += 1;
                }
            }
        }
    }

    // `let [mut] name` bindings in the body.
    if let Some((open, close)) = f.body {
        let mut i = open;
        while i < close {
            if !toks[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).and_then(Tok::ident) else {
                i = j + 1;
                continue;
            };
            j += 1;
            let stmt_end = statement_end(toks, j, close);
            let hashy = if toks.get(j).is_some_and(|t| t.is_punct(':')) {
                // Annotated: type runs to the `=` (or statement end).
                let ty_end = (j + 1..stmt_end)
                    .find(|&k| toks[k].is_punct('='))
                    .unwrap_or(stmt_end);
                outer_is_hash(toks, (j + 1, ty_end), names)
            } else if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                // Unannotated: initializer names the type (`HashMap::new()`).
                (j + 1..stmt_end).any(|k| {
                    toks[k].ident().is_some_and(|w| names.contains(w))
                        && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                })
            } else {
                false
            };
            if hashy {
                symbols.insert(name.to_string());
            }
            i = stmt_end + 1;
        }
    }
    symbols
}

/// Index of the token ending the statement starting at/inside `start`: the
/// next `;` at brace-relative depth 0, the close of a depth-0 brace block
/// (`if let .. { .. }` ends with its block), or the end of the enclosing
/// block, bounded by `close`.
pub(crate) fn statement_end(toks: &[Tok], start: usize, close: usize) -> usize {
    let mut brace = 0i64;
    for (k, t) in toks.iter().enumerate().take(close).skip(start) {
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            if brace == 0 {
                return k;
            }
            brace -= 1;
            if brace == 0 {
                return k;
            }
        } else if t.is_punct(';') && brace == 0 {
            return k;
        }
    }
    close
}

/// Scans one fn body for unordered-iteration sites.
fn find_unordered_iterations(
    toks: &[Tok],
    (open, close): (usize, usize),
    symbols: &BTreeSet<String>,
    fields: &BTreeSet<String>,
    rel_path: &str,
    findings: &mut Vec<Finding>,
) {
    let is_hash_receiver = |idx: usize| -> bool {
        // `sym.iter()` — receiver ident directly before the dot.
        let Some(word) = toks.get(idx).and_then(Tok::ident) else {
            return false;
        };
        if symbols.contains(word)
            && !toks
                .get(idx.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.'))
        {
            return true;
        }
        // `self.field.iter()` / `x.field.iter()` — field access.
        fields.contains(word) && idx >= 1 && toks[idx - 1].is_punct('.')
    };

    let mut i = open;
    while i <= close {
        let t = &toks[i];
        // Method form: `<recv> . iter ( )`.
        if let Some(word) = t.ident() {
            if ITER_METHODS.contains(&word)
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && is_hash_receiver(i - 2)
            {
                if let Some(call_close) = seek_close(toks, i + 1, close + 1, '(', ')') {
                    if !chain_restores_order(toks, call_close, close) {
                        findings.push(Finding::new(
                            NO_UNORDERED_ITERATION,
                            rel_path,
                            t.line,
                            format!(
                                "`.{word}()` on a HashMap/HashSet iterates in hasher order, which \
                                 can reach numeric accumulation or serialized output \
                                 (DESIGN.md §8); use a BTreeMap/BTreeSet or sort before consuming"
                            ),
                        ));
                    }
                    i = call_close + 1;
                    continue;
                }
            }
            // Loop form: `for <pat> in [&[mut]] <recv> {`.
            if word == "for" {
                if let Some(hit_line) = for_loop_over_hash(toks, i, close, symbols, fields) {
                    findings.push(Finding::new(
                        NO_UNORDERED_ITERATION,
                        rel_path,
                        hit_line,
                        "`for` over a HashMap/HashSet visits entries in hasher order, which can \
                         reach numeric accumulation or serialized output (DESIGN.md §8); use a \
                         BTreeMap/BTreeSet or collect-and-sort first",
                    ));
                }
            }
        }
        i += 1;
    }
}

/// If the `for` at `for_idx` loops directly over a hash symbol/field,
/// returns the line to report.
pub(crate) fn for_loop_over_hash(
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
    let expr_start = j + 1;
    let mut k = expr_start;
    // Strip `&`, `&mut`.
    while k <= close && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
        k += 1;
    }
    let root = toks.get(k).and_then(Tok::ident)?;
    let line = toks[k].line;
    if symbols.contains(root) {
        // `for x in map` / `for x in &map` — and not `map.something_safe()`:
        // a chained call is handled (and possibly exonerated) by the
        // method-form scan, so only flag bare receivers here.
        let next = toks.get(k + 1);
        if next.is_none_or(|t| t.is_punct('{')) {
            return Some(line);
        }
        return None;
    }
    if root == "self" {
        // `for x in &self.field {`
        if toks.get(k + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(field) = toks.get(k + 2).and_then(Tok::ident) {
                if fields.contains(field) && toks.get(k + 3).is_some_and(|t| t.is_punct('{')) {
                    return Some(line);
                }
            }
        }
    }
    None
}

/// Walks the method chain after a closing paren; true when the chain (or
/// the statement it feeds) restores a deterministic order: an explicit
/// sort, an order-insensitive terminal, or a collect into an ordered
/// collection that is sorted afterwards.
pub(crate) fn chain_restores_order(toks: &[Tok], mut call_close: usize, body_close: usize) -> bool {
    let mut last_method: Option<&str> = None;
    let mut collected_ordered = false;
    loop {
        let Some(dot) = toks.get(call_close + 1) else {
            break;
        };
        if !dot.is_punct('.') {
            break;
        }
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
            match seek_close(toks, next, body_close + 1, '(', ')') {
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
    if let Some((binding, annotated_ordered)) = let_binding_before(toks, call_close) {
        if annotated_ordered {
            return true;
        }
        if last_method == Some("collect") || collected_ordered {
            let mut k = stmt_end;
            while k + 2 <= body_close {
                if toks[k].is_ident(&binding)
                    && toks[k + 1].is_punct('.')
                    && toks
                        .get(k + 2)
                        .and_then(Tok::ident)
                        .is_some_and(|w| SORT_METHODS.contains(&w))
                {
                    return true;
                }
                k += 1;
            }
        }
    }
    false
}

/// Walks backwards from a chain position to the start of its statement;
/// returns the `let` binding name and whether its type annotation names an
/// ordered collection.
fn let_binding_before(toks: &[Tok], from: usize) -> Option<(String, bool)> {
    let mut k = from;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
    }
    let mut j = k + 1;
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    j += 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j).and_then(Tok::ident)?.to_string();
    let mut annotated_ordered = false;
    if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
        let mut m = j + 2;
        while m < from && !toks[m].is_punct('=') {
            if toks[m]
                .ident()
                .is_some_and(|w| ORDERED_COLLECTIONS[..2].contains(&w))
            {
                annotated_ordered = true;
            }
            m += 1;
        }
    }
    Some((name, annotated_ordered))
}

/// Ambient-authority tokens: `env::var` / `env::var_os`, `Instant::now`,
/// `SystemTime::now`, plus bare `var(..)` when `use std::env::var` is in
/// scope.
fn find_ambient_authority(
    toks: &[Tok],
    uses: &UseMap,
    rel_path: &str,
    in_test: &impl Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let bare_var = uses.resolve("var") == Some("std::env::var")
        || uses.resolve("var_os") == Some("std::env::var_os");
    for i in 0..toks.len() {
        let Some(word) = toks[i].ident() else {
            continue;
        };
        let qualified = |head: &str, tail: &str| -> bool {
            // Call form only (`env::var(..)`) — a `use std::env::var;`
            // declaration is matched at the call site instead.
            word == head
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident(tail))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        };
        let hit = if qualified("env", "var") || qualified("env", "var_os") {
            Some("std::env::var")
        } else if qualified("Instant", "now") {
            Some("Instant::now")
        } else if qualified("SystemTime", "now") {
            Some("SystemTime::now")
        } else if bare_var
            && (word == "var" || word == "var_os")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !toks
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.') || t.is_punct(':'))
        {
            Some("std::env::var")
        } else {
            None
        };
        if let Some(what) = hit {
            if !in_test(i) {
                findings.push(Finding::new(
                    NO_AMBIENT_AUTHORITY,
                    rel_path,
                    toks[i].line,
                    format!(
                        "`{what}` reads ambient process state inside a numeric path; route \
                         environment knobs through `cs_linalg::config` (designated config/bench \
                         modules are exempt)"
                    ),
                ));
            }
        }
    }
}

/// A `Mutex`/`RwLock` guard acquisition inside one fn body, with the token
/// range over which the guard may still be live.
#[derive(Debug)]
struct Acquisition {
    idx: usize,
    line: u32,
    live_to: usize,
}

/// Scans one fn body for overlapping guard lifetimes.
///
/// Liveness is approximated per DESIGN.md §7: a guard bound by a plain
/// `let g = x.lock()…;` (chain ending at the lock or a following
/// `unwrap`/`expect`) lives to the end of the enclosing block; a guard
/// used as a temporary inside a larger expression lives to the end of its
/// statement (including an attached block — `if let` conditions keep
/// their temporaries alive through the body).
fn find_nested_locks(
    toks: &[Tok],
    (open, close): (usize, usize),
    rel_path: &str,
    findings: &mut Vec<Finding>,
) {
    let mut acquisitions: Vec<Acquisition> = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        let is_acq = t
            .ident()
            .is_some_and(|w| matches!(w, "lock" | "read" | "write"))
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_acq {
            i += 1;
            continue;
        }
        let Some(call_close) = seek_close(toks, i + 1, close, '(', ')') else {
            break;
        };
        // Skip one `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` —
        // still the same guard value.
        let mut chain_end = call_close;
        if toks.get(chain_end + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(next) = toks.get(chain_end + 2).and_then(Tok::ident) {
                if matches!(next, "unwrap" | "expect" | "unwrap_or_else") {
                    if let Some(c) = seek_close(toks, chain_end + 3, close, '(', ')') {
                        chain_end = c;
                    }
                }
            }
        }
        let guard_bound = !toks.get(chain_end + 1).is_some_and(|t| t.is_punct('.'))
            && let_binding_before(toks, i).is_some();
        let live_to = if guard_bound {
            enclosing_block_end(toks, i, close)
        } else {
            statement_end(toks, chain_end, close)
        };
        acquisitions.push(Acquisition {
            idx: i,
            line: t.line,
            live_to,
        });
        i += 1;
    }
    for (a, b) in acquisitions
        .iter()
        .enumerate()
        .flat_map(|(n, a)| acquisitions[n + 1..].iter().map(move |b| (a, b)))
    {
        if b.idx <= a.live_to {
            findings.push(Finding::new(
                LOCK_DISCIPLINE,
                rel_path,
                b.line,
                format!(
                    "second lock acquired while the guard taken at line {} may still be live; \
                     nested Mutex/RwLock acquisition risks deadlock — drop the first guard \
                     (or restructure) before taking another",
                    a.line
                ),
            ));
        }
    }
}

/// Index of the `}` closing the innermost block containing `idx`.
fn enclosing_block_end(toks: &[Tok], idx: usize, close: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(close + 1).skip(idx) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        }
    }
    close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_rust_source;

    const DET: &str = "crates/cs-repro/src/fake.rs";
    const POOL: &str = "crates/cs-linalg/src/pool.rs";

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
    fn ambient_authority_fires_outside_config() {
        let src = "fn threads() -> usize {\n\
                       std::env::var(\"CS_THREADS\").ok().and_then(|s| s.parse().ok()).unwrap_or(1)\n\
                   }";
        assert_eq!(
            fired(src, "crates/cs-core/src/fake.rs"),
            vec![NO_AMBIENT_AUTHORITY]
        );
        // Designated config module: clean.
        assert!(fired(src, "crates/cs-linalg/src/config.rs").is_empty());
        // Bench crate: clean.
        assert!(fired(src, "crates/cs-bench/src/fake.rs").is_empty());
        // Test code: clean.
        assert!(fired(src, "crates/cs-core/tests/fake.rs").is_empty());
    }

    #[test]
    fn clock_reads_fire() {
        for call in ["std::time::Instant::now()", "SystemTime::now()"] {
            let src = format!("fn f() {{ let _ = {call}; }}");
            assert_eq!(
                fired(&src, "crates/cs-match/src/fake.rs"),
                vec![NO_AMBIENT_AUTHORITY],
                "{call}"
            );
        }
    }

    #[test]
    fn bare_var_fires_only_with_env_import() {
        let src = "use std::env::var;\nfn f() -> Option<String> { var(\"X\").ok() }";
        assert_eq!(
            fired(src, "crates/cs-core/src/fake.rs"),
            vec![NO_AMBIENT_AUTHORITY]
        );
        // A local fn named `var` without the import: clean.
        let src = "fn var(x: u8) -> u8 { x }\nfn f() -> u8 { var(3) }";
        assert!(fired(src, "crates/cs-core/src/fake.rs").is_empty());
    }

    #[test]
    fn nested_let_bound_guards_fire() {
        let src = "use std::sync::Mutex;\n\
                   fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n\
                       let ga = a.lock().expect(\"a\");\n\
                       let gb = b.lock().expect(\"b\");\n\
                       *ga + *gb\n\
                   }";
        assert_eq!(fired(src, POOL), vec![LOCK_DISCIPLINE]);
        // Outside the lock-discipline scope: clean.
        assert!(fired(src, "crates/cs-match/src/fake.rs").is_empty());
    }

    #[test]
    fn sequential_temporaries_are_clean() {
        let src = "use std::sync::RwLock;\n\
                   use std::collections::HashMap;\n\
                   struct C { m: RwLock<HashMap<String, f64>> }\n\
                   impl C {\n\
                       fn get_or_insert(&self, k: &str) -> f64 {\n\
                           if let Some(v) = self.m.read().expect(\"poisoned\").get(k) { return *v; }\n\
                           self.m.write().expect(\"poisoned\").insert(k.to_string(), 1.0);\n\
                           1.0\n\
                       }\n\
                   }";
        assert!(fired(src, "crates/cs-embed/src/fake.rs").is_empty());
    }

    #[test]
    fn write_inside_read_guard_statement_fires() {
        let src = "use std::sync::RwLock;\n\
                   use std::collections::HashMap;\n\
                   struct C { m: RwLock<HashMap<String, f64>> }\n\
                   impl C {\n\
                       fn bad(&self, k: &str) {\n\
                           if let Some(_) = self.m.read().expect(\"p\").get(k) {\n\
                               self.m.write().expect(\"p\").insert(k.to_string(), 1.0);\n\
                           }\n\
                       }\n\
                   }";
        assert_eq!(
            fired(src, "crates/cs-embed/src/fake.rs"),
            vec![LOCK_DISCIPLINE]
        );
    }

    #[test]
    fn lock_discipline_is_waivable() {
        let src = "use std::sync::Mutex;\n\
                   fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n\
                       let ga = a.lock().expect(\"a\");\n\
                       // cs-lint: allow(lock-discipline) -- global order: a before b everywhere\n\
                       let gb = b.lock().expect(\"b\");\n\
                       *ga + *gb\n\
                   }";
        assert!(fired(src, POOL).is_empty());
    }
}
