//! Item-level analysis: a brace-tree parser over the [`crate::lexer`]
//! token stream.
//!
//! The flat token rules of the original linter cannot answer questions
//! like "is this `.lock()` still live when that `.write()` runs?" or
//! "does this identifier name a `HashMap`?". This module recovers just
//! enough structure for scoped, intraprocedural rules (DESIGN.md §7):
//!
//! - **items** — `fn` / `impl` / `mod` / `use` / `struct` / `enum` /
//!   `trait` / `const` / `static` / `type`, each with its signature token
//!   range, optional brace-body range, and nesting (mods, impl blocks),
//! - **per-function bodies** — the token range a rule should treat as one
//!   analysis scope,
//! - **a lite use-resolution map** — local name → full `::` path, so a
//!   rule can tell `use std::collections::HashMap` apart from a local
//!   `mod HashMap` shadow without type inference.
//!
//! The parser is deliberately *lite*: it never errors (unparseable
//! stretches are skipped token by token) and it does not descend into
//! function bodies looking for nested items — the rules that consume it
//! treat a body as a flat region.

use crate::lexer::Tok;
use std::collections::BTreeMap;

/// What kind of item a declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Union,
    Trait,
    Impl,
    Mod,
    Use,
    Const,
    Static,
    TypeAlias,
    MacroDef,
    ExternCrate,
}

/// Item visibility, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in ..)` — not public API surface.
    Scoped,
    /// No visibility qualifier.
    Private,
}

/// One parsed item. Token indices refer to the stream the item was parsed
/// from.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    pub vis: Vis,
    /// Declared name (`fn name`, `mod name`, ..); empty for `impl` and
    /// `use` items.
    pub name: String,
    /// 1-based source line of the item keyword.
    pub line: u32,
    /// `[start, end)` token range of the header/signature: from the first
    /// token after attributes up to (exclusive) the body `{` or the
    /// terminating `;`.
    pub sig: (usize, usize),
    /// `[open, close]` token range of the brace body, inclusive of both
    /// braces, when the item has one.
    pub body: Option<(usize, usize)>,
    /// Nested items: a `mod`'s contents, an `impl`/`trait` block's
    /// associated items. Empty for everything else.
    pub children: Vec<Item>,
}

impl Item {
    /// True when this item's brace body covers token index `idx`.
    pub fn body_contains(&self, idx: usize) -> bool {
        self.body.is_some_and(|(s, e)| idx >= s && idx <= e)
    }
}

/// Item keywords that carry a brace body (scan stops at `{`); the rest
/// terminate at `;` (scan tracks nesting so `[u8; 4]` or `= Foo { .. }`
/// never end an item early).
fn has_brace_body(kind: ItemKind) -> bool {
    matches!(
        kind,
        ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::Impl
            | ItemKind::Mod
            | ItemKind::MacroDef
    )
}

/// Parses the whole token stream as a sequence of items (a file body).
pub fn parse_items(toks: &[Tok]) -> Vec<Item> {
    parse_block(toks, 0, toks.len())
}

/// Parses items in `toks[start..end)` (a file body, `mod` body, or
/// `impl`/`trait` block).
fn parse_block(toks: &[Tok], start: usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = start;
    while i < end {
        // Attributes: `#[..]` and inner `#![..]`.
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < end && toks[j].is_punct('!') {
                j += 1;
            }
            if j < end && toks[j].is_punct('[') {
                match matching_delim(toks, j, end, '[', ']') {
                    Some(close) => {
                        i = close + 1;
                        continue;
                    }
                    None => break,
                }
            }
            i += 1;
            continue;
        }
        match parse_item(toks, i, end) {
            Some((item, next)) => {
                i = next;
                items.push(item);
            }
            None => i += 1,
        }
    }
    items
}

/// Attempts to parse one item starting at `i` (visibility or item keyword
/// position). Returns the item and the index just past it.
fn parse_item(toks: &[Tok], i: usize, end: usize) -> Option<(Item, usize)> {
    let sig_start = i;
    let mut j = i;

    // Visibility: `pub`, `pub(crate)`, `pub(super)`, `pub(in path)`.
    let mut vis = Vis::Private;
    if toks.get(j).is_some_and(|t| t.is_ident("pub")) {
        vis = Vis::Pub;
        j += 1;
        if j < end && toks[j].is_punct('(') {
            let close = matching_delim(toks, j, end, '(', ')')?;
            vis = Vis::Scoped;
            j = close + 1;
        }
    }

    // Qualifiers before the item keyword. `const`/`extern` double as item
    // keywords, so peek before treating them as qualifiers.
    loop {
        let word = toks.get(j).and_then(Tok::ident)?;
        match word {
            "default" | "async" | "unsafe" => j += 1,
            "const" if toks.get(j + 1).is_some_and(|t| t.is_ident("fn")) => j += 1,
            "extern" if next_is_fn_after_abi(toks, j, end) => {
                j += 1;
                // Optional ABI string literal.
                if toks
                    .get(j)
                    .is_some_and(|t| t.ident().is_none() && !t.is_punct('{'))
                {
                    j += 1;
                }
            }
            _ => break,
        }
    }

    let kw = toks.get(j).and_then(Tok::ident)?;
    let line = toks[j].line;
    let (kind, named) = match kw {
        "fn" => (ItemKind::Fn, true),
        "struct" => (ItemKind::Struct, true),
        "enum" => (ItemKind::Enum, true),
        "union" => (ItemKind::Union, true),
        "trait" => (ItemKind::Trait, true),
        "impl" => (ItemKind::Impl, false),
        "mod" => (ItemKind::Mod, true),
        "use" => (ItemKind::Use, false),
        "const" => (ItemKind::Const, true),
        "static" => (ItemKind::Static, true),
        "type" => (ItemKind::TypeAlias, true),
        "macro_rules" => (ItemKind::MacroDef, true),
        "extern" if toks.get(j + 1).is_some_and(|t| t.is_ident("crate")) => {
            (ItemKind::ExternCrate, false)
        }
        _ => return None,
    };
    j += 1;

    let name = if named {
        // `const _: () = ..` and `static mut X` wrinkles.
        if kind == ItemKind::Static && toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if kind == ItemKind::MacroDef && toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        match toks.get(j).and_then(Tok::ident) {
            Some(n) => {
                j += 1;
                n.to_string()
            }
            None if kind == ItemKind::Const && toks.get(j).is_some_and(|t| t.is_punct('_')) => {
                j += 1;
                "_".to_string()
            }
            None => String::new(),
        }
    } else {
        String::new()
    };

    // Scan to the item terminator: the body `{` at nesting depth 0 for
    // brace-bodied kinds, otherwise the `;` at nesting depth 0.
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut brace = 0i64;
    let want_brace = has_brace_body(kind);
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            if want_brace && paren == 0 && bracket == 0 && brace == 0 {
                // Body found.
                let close = matching_delim(toks, j, end, '{', '}')?;
                let children = match kind {
                    ItemKind::Mod | ItemKind::Impl | ItemKind::Trait => {
                        parse_block(toks, j + 1, close)
                    }
                    _ => Vec::new(),
                };
                return Some((
                    Item {
                        kind,
                        vis,
                        name,
                        line,
                        sig: (sig_start, j),
                        body: Some((j, close)),
                        children,
                    },
                    close + 1,
                ));
            }
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                // End of the enclosing block: a bodyless item ran out.
                break;
            }
        } else if t.is_punct(';') && paren == 0 && bracket == 0 && brace == 0 {
            if want_brace {
                // `fn f();` (trait method), `mod name;`, `struct Unit;`.
                return Some((
                    Item {
                        kind,
                        vis,
                        name,
                        line,
                        sig: (sig_start, j),
                        body: None,
                        children: Vec::new(),
                    },
                    j + 1,
                ));
            }
            return Some((
                Item {
                    kind,
                    vis,
                    name,
                    line,
                    sig: (sig_start, j),
                    body: None,
                    children: Vec::new(),
                },
                j + 1,
            ));
        }
        j += 1;
    }
    None
}

/// After an `extern` at `j`, is the next meaningful token (skipping one
/// optional ABI literal) `fn`? Distinguishes `extern "C" fn` from
/// `extern crate`.
fn next_is_fn_after_abi(toks: &[Tok], j: usize, end: usize) -> bool {
    let mut k = j + 1;
    if k < end && toks[k].ident().is_none() && !toks[k].is_punct('{') {
        k += 1; // ABI string literal
    }
    toks.get(k).is_some_and(|t| t.is_ident("fn"))
}

/// Index of the token closing the delimiter opened at `open_idx`, bounded
/// by `end`.
pub(crate) fn matching_delim(
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

/// Index of the depth-0 `,` (or `close`) ending a type annotation that
/// starts at `start`: a struct field's or a parameter's.
pub(crate) fn type_end(toks: &[Tok], start: usize, close: usize) -> usize {
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

/// One named field of a struct body.
pub(crate) struct Field {
    /// Token index of the field name.
    pub name: usize,
    /// Declared exactly `pub` (not `pub(..)`).
    pub is_pub: bool,
    /// `[start, end)` token range of the declared type.
    pub ty: (usize, usize),
}

/// The named fields of the struct body `[open, close]`, attributes and
/// visibility skipped.
pub(crate) fn struct_fields(toks: &[Tok], (open, close): (usize, usize)) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < close {
        let mut is_pub = false;
        while i < close && (toks[i].is_punct('#') || toks[i].is_ident("pub")) {
            let last = if toks[i].is_punct('#') {
                matching_delim(toks, i + 1, close, '[', ']')
            } else if toks[i + 1].is_punct('(') {
                matching_delim(toks, i + 1, close, '(', ')')
            } else {
                is_pub = true;
                Some(i)
            };
            match last {
                Some(e) => i = e + 1,
                None => return fields,
            }
        }
        if toks.get(i).and_then(Tok::ident).is_some()
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            let end = type_end(toks, i + 2, close);
            fields.push(Field {
                name: i,
                is_pub,
                ty: (i + 2, end),
            });
            i = end + 1;
        } else {
            i += 1;
        }
    }
    fields
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

/// Walks backwards from `from` to the start of its statement; when that
/// statement is `let [mut] name ..`, returns the index of `name`.
pub(crate) fn let_binding_before(toks: &[Tok], from: usize) -> Option<usize> {
    let start = toks[..from]
        .iter()
        .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))?
        + 1;
    if !toks.get(start).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let name = start + 1 + usize::from(toks.get(start + 1).is_some_and(|t| t.is_ident("mut")));
    toks.get(name).and_then(Tok::ident).map(|_| name)
}

/// Visits every `fn` item in the tree (including methods inside `impl` /
/// `trait` blocks and fns in inline mods), depth-first.
pub fn for_each_fn<'a>(items: &'a [Item], visit: &mut impl FnMut(&'a Item)) {
    for item in items {
        if item.kind == ItemKind::Fn {
            visit(item);
        }
        for_each_fn(&item.children, visit);
    }
}

/// The lite use-resolution map: local name → full `::`-joined path.
///
/// Built from the file's `use` items (groups, `as` aliases, nested
/// groups); glob imports are ignored. `resolve` answers "what path does
/// this identifier name here" for rules that key on well-known types
/// (`HashMap`, `Instant`) without chasing cross-crate semantics.
#[derive(Debug, Default)]
pub struct UseMap {
    map: BTreeMap<String, String>,
}

impl UseMap {
    /// Builds the map from a parsed item tree (recurses into inline mods —
    /// good enough for file-scoped rules; path shadowing across mods is
    /// out of scope for a lite resolver).
    pub fn build(toks: &[Tok], items: &[Item]) -> Self {
        let mut map = BTreeMap::new();
        collect_uses(toks, items, &mut map);
        Self { map }
    }

    /// Full path an identifier resolves to via `use`, if any.
    pub fn resolve(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Every `(local name, full path)` pair, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

fn collect_uses(toks: &[Tok], items: &[Item], map: &mut BTreeMap<String, String>) {
    for item in items {
        if item.kind == ItemKind::Use {
            let (start, end) = item.sig;
            // Skip visibility and the `use` keyword itself.
            let mut k = start;
            while k < end && !toks[k].is_ident("use") {
                k += 1;
            }
            if k < end {
                parse_use_tree(toks, k + 1, end, &mut Vec::new(), map);
            }
        }
        collect_uses(toks, &item.children, map);
    }
}

/// Recursive descent over one use-tree: `a::b::{c, d as e, f::g}`.
/// `prefix` carries the path segments accumulated so far.
fn parse_use_tree(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    map: &mut BTreeMap<String, String>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while i < end {
        let t = &toks[i];
        if let Some(word) = t.ident() {
            if word == "as" {
                // Alias: the *next* ident names the full path so far.
                if let Some(alias) = toks.get(i + 1).and_then(Tok::ident) {
                    let mut path = prefix.clone();
                    if let Some(seg) = last.take() {
                        path.push(seg);
                    }
                    map.insert(alias.to_string(), path.join("::"));
                    i += 2;
                    continue;
                }
            }
            last = Some(word.to_string());
            i += 1;
        } else if t.is_punct(':') {
            // `::` — the pending segment becomes part of the prefix.
            if toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                i += 2;
            } else {
                i += 1;
            }
        } else if t.is_punct('{') {
            i = parse_use_tree(toks, i + 1, end, prefix, map);
        } else if t.is_punct(',') {
            if let Some(seg) = last.take() {
                let mut path = prefix.clone();
                path.push(seg.clone());
                map.insert(seg, path.join("::"));
            }
            prefix.truncate(depth_at_entry);
            i += 1;
        } else if t.is_punct('}') || t.is_punct(';') {
            break;
        } else {
            // `*` glob or stray punctuation: drop the pending segment.
            last = None;
            i += 1;
        }
    }
    if let Some(seg) = last.take() {
        let mut path = prefix.clone();
        path.push(seg.clone());
        map.insert(seg, path.join("::"));
    }
    prefix.truncate(depth_at_entry);
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items_of(src: &str) -> (Vec<Tok>, Vec<Item>) {
        let toks = lex(src).tokens;
        let items = parse_items(&toks);
        (toks, items)
    }

    #[test]
    fn top_level_items_recovered() {
        let src = "
            use std::collections::HashMap;
            pub struct S { a: u8 }
            pub(crate) enum E { A, B(u8) }
            const N: usize = 4;
            pub fn f(x: u8) -> u8 { x + 1 }
            mod inner { pub fn g() {} }
        ";
        let (_, items) = items_of(src);
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::Struct,
                ItemKind::Enum,
                ItemKind::Const,
                ItemKind::Fn,
                ItemKind::Mod,
            ]
        );
        assert_eq!(items[1].vis, Vis::Pub);
        assert_eq!(items[2].vis, Vis::Scoped);
        assert_eq!(items[3].vis, Vis::Private);
        assert_eq!(items[4].name, "f");
        assert!(items[4].body.is_some());
        assert_eq!(items[5].children.len(), 1);
        assert_eq!(items[5].children[0].name, "g");
    }

    #[test]
    fn impl_methods_are_children() {
        let src = "
            impl Foo {
                pub fn a(&self) -> u8 { 1 }
                fn b(&self) {}
            }
            impl Display for Foo {
                fn fmt(&self, f: &mut Formatter) -> fmt::Result { Ok(()) }
            }
        ";
        let (_, items) = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[0].children[0].name, "a");
        assert_eq!(items[0].children[0].vis, Vis::Pub);
        assert_eq!(items[1].children.len(), 1);
    }

    #[test]
    fn fn_body_ranges_are_exact() {
        let src = "fn f() { inner(); } fn g() {}";
        let (toks, items) = items_of(src);
        let (open, close) = items[0].body.unwrap();
        assert!(toks[open].is_punct('{') && toks[close].is_punct('}'));
        // `inner` sits inside f's body, `g` outside it.
        let inner_idx = toks.iter().position(|t| t.is_ident("inner")).unwrap();
        assert!(items[0].body_contains(inner_idx));
        let g_idx = toks.iter().position(|t| t.is_ident("g")).unwrap();
        assert!(!items[0].body_contains(g_idx));
    }

    #[test]
    fn const_with_struct_literal_value_does_not_split() {
        let src = "const C: Cfg = Cfg { a: 1, b: 2 }; fn after() {}";
        let (_, items) = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Const);
        assert_eq!(items[1].name, "after");
    }

    #[test]
    fn array_semicolons_do_not_terminate() {
        let src = "pub fn f(x: [u8; 4]) -> [f64; 2] { [0.0; 2] } fn g() {}";
        let (_, items) = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "f");
        assert!(items[0].body.is_some());
    }

    #[test]
    fn where_clauses_stay_in_signature() {
        let src = "pub fn run<T, F>(k: usize, work: F) -> Vec<T> where F: Fn(usize) -> T, T: Send { Vec::new() }";
        let (toks, items) = items_of(src);
        let (s, e) = items[0].sig;
        let sig_text: Vec<String> = toks[s..e].iter().map(Tok::text).collect();
        assert!(sig_text.contains(&"where".to_string()));
        assert!(!sig_text.contains(&"new".to_string()));
    }

    #[test]
    fn use_map_groups_and_aliases() {
        let src = "
            use std::collections::{HashMap, HashSet, BTreeMap as Tree};
            use std::sync::Mutex;
            use std::time::Instant;
            use crate::other::*;
        ";
        let (toks, items) = items_of(src);
        let m = UseMap::build(&toks, &items);
        assert_eq!(m.resolve("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(m.resolve("HashSet"), Some("std::collections::HashSet"));
        assert_eq!(m.resolve("Tree"), Some("std::collections::BTreeMap"));
        assert_eq!(m.resolve("Mutex"), Some("std::sync::Mutex"));
        assert_eq!(m.resolve("Instant"), Some("std::time::Instant"));
        assert_eq!(m.resolve("*"), None);
    }

    #[test]
    fn nested_use_groups() {
        let src = "use std::{collections::{HashMap, hash_map::Entry}, sync::{Arc, Mutex}};";
        let (toks, items) = items_of(src);
        let m = UseMap::build(&toks, &items);
        assert_eq!(m.resolve("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(
            m.resolve("Entry"),
            Some("std::collections::hash_map::Entry")
        );
        assert_eq!(m.resolve("Arc"), Some("std::sync::Arc"));
        assert_eq!(m.resolve("Mutex"), Some("std::sync::Mutex"));
    }

    #[test]
    fn trait_methods_without_bodies() {
        let src = "pub trait Scoper { fn assess(&self) -> u8; fn both(&self) -> u8 { 2 } }";
        let (_, items) = items_of(src);
        assert_eq!(items[0].kind, ItemKind::Trait);
        assert_eq!(items[0].children.len(), 2);
        assert!(items[0].children[0].body.is_none());
        assert!(items[0].children[1].body.is_some());
    }

    #[test]
    fn for_each_fn_visits_nested() {
        let src = "
            fn top() {}
            mod m { impl T { pub fn method(&self) {} } }
            pub trait Tr { fn sig(&self); }
        ";
        let (_, items) = items_of(src);
        let mut names = Vec::new();
        for_each_fn(&items, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, vec!["top", "method", "sig"]);
    }

    #[test]
    fn attributes_are_skipped() {
        let src = "#![allow(dead_code)]\n#[derive(Debug, Clone)]\n#[repr(C)]\npub struct S;";
        let (_, items) = items_of(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, ItemKind::Struct);
        assert_eq!(items[0].name, "S");
    }

    #[test]
    fn qualifier_combinations() {
        let src =
            "pub const fn c() {} pub async fn a() {} pub unsafe fn u() {} extern \"C\" fn e() {}";
        let (_, items) = items_of(src);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "u", "e"]);
        assert!(items.iter().all(|i| i.kind == ItemKind::Fn));
    }
}
