//! The concurrency rule pack (DESIGN.md §7/§8).
//!
//! Both rules are *item-level*: they read the [`ParsedFile`] brace tree
//! and reason per function body instead of over the flat token stream —
//!
//! - [`crate::rules::NO_AMBIENT_AUTHORITY`] — `std::env::var`,
//!   `Instant::now`, `SystemTime::now` outside the designated config /
//!   bench modules,
//! - [`crate::rules::LOCK_DISCIPLINE`] — acquiring a second
//!   `Mutex`/`RwLock` guard while another may still be live within one
//!   function body of `cs_linalg::pool` or `cs-embed`.
//!
//! Both are heuristic by design (no type inference), tuned so the shipped
//! tree is clean without waivers and every false positive has a cheap
//! local fix (a config knob, a dropped guard, a justified waiver). The
//! determinism rules live in [`crate::dataflow`].

use crate::items::{let_binding_before, matching_delim, statement_end};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::rules::{ParsedFile, LOCK_DISCIPLINE, NO_AMBIENT_AUTHORITY};

/// Runs the pack over one parsed file.
pub(crate) fn lint_items(file: &ParsedFile, findings: &mut Vec<Finding>) {
    if !file.class.ambient_exempt {
        find_ambient_authority(file, findings);
    }
    if file.class.lock_scope {
        for (_, body) in file.fn_bodies() {
            find_nested_locks(&file.toks, body, &file.rel, findings);
        }
    }
}

/// Ambient-authority tokens: `env::var` / `env::var_os`, `Instant::now`,
/// `SystemTime::now`, plus bare `var(..)` when `use std::env::var` is in
/// scope.
fn find_ambient_authority(file: &ParsedFile, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    let bare_var = file.uses.resolve("var") == Some("std::env::var")
        || file.uses.resolve("var_os") == Some("std::env::var_os");
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
            if !file.in_test(i) {
                findings.push(Finding::new(
                    NO_AMBIENT_AUTHORITY,
                    file.rel.as_str(),
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
        let Some(call_close) = matching_delim(toks, i + 1, close, '(', ')') else {
            break;
        };
        // Skip one `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` —
        // still the same guard value.
        let mut chain_end = call_close;
        if toks.get(chain_end + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(next) = toks.get(chain_end + 2).and_then(Tok::ident) {
                if matches!(next, "unwrap" | "expect" | "unwrap_or_else") {
                    if let Some(c) = matching_delim(toks, chain_end + 3, close, '(', ')') {
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

    const POOL: &str = "crates/cs-linalg/src/pool.rs";

    fn fired(src: &str, path: &str) -> Vec<&'static str> {
        lint_rust_source(src, path)
            .into_iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
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
