//! Runtime determinism sanitizer: lock-order recording and a
//! float-environment probe (DESIGN.md §12).
//!
//! The static rules of cs-lint (DESIGN.md §7) prove properties of the
//! *source*; this module observes the *run*. When enabled it records two
//! kinds of evidence, both deterministic and digestible:
//!
//! 1. **Lock-order graph.** Every instrumented lock site calls [`trace`]
//!    just before acquiring and holds the returned [`LockTrace`] for the
//!    guard's lifetime. While a thread holds lock `a` and acquires lock
//!    `b`, the edge `a → b` is recorded into a process-global graph. A
//!    cycle in that graph is a *deadlock potential*: two threads can
//!    interleave the cyclic acquisitions and block forever. The graph is
//!    a set (not a trace log), so its contents depend only on which
//!    nestings occurred, never on thread timing — identical across
//!    `CS_THREADS` settings by construction.
//! 2. **Float-environment probe.** Each participating thread evaluates a
//!    fixed battery of IEEE-754 edge cases ([`float_env_probe`]:
//!    subnormal survival, round-to-nearest-even, NaN propagation,
//!    overflow to infinity) and records the 64-bit digest of the
//!    results. If any two threads disagree — e.g. a worker runs with
//!    flush-to-zero or a different rounding mode — the probe *set* holds
//!    more than one value and the run is flagged: bit-identical results
//!    across workers (DESIGN.md §8) are impossible on drifting float
//!    environments.
//!
//! Everything is compiled unconditionally and gated at runtime: one
//! relaxed atomic load per instrumented site when off. The `sanitize`
//! cargo feature forces it on at build time; the `CS_SANITIZE` env knob
//! (read once, through [`crate::config`]) enables it per run —
//! `scripts/verify.sh` uses the knob to re-run the fault matrix
//! sanitized.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::config;
use crate::Fnv1a;

/// Enablement cache: 0 = undecided, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the sanitizer records this run: the `sanitize` cargo feature
/// is active, the `CS_SANITIZE` environment knob is set, or a harness
/// called [`force`]. Decided once per process, then a single atomic load.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = cfg!(feature = "sanitize") || config::env_flag(config::SANITIZE);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides enablement for the rest of the process — for test harnesses
/// that cannot set environment variables (ambient-authority policy) but
/// need the instrumented paths live.
pub fn force(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The recorded evidence: nesting edges and per-thread float probes.
#[derive(Debug, Default)]
struct Evidence {
    /// `held → acquired` lock nestings observed anywhere in the process.
    edges: BTreeSet<(String, String)>,
    /// Distinct [`float_env_probe`] values across participating threads.
    probes: BTreeSet<u64>,
}

fn evidence() -> &'static Mutex<Evidence> {
    static EVIDENCE: OnceLock<Mutex<Evidence>> = OnceLock::new();
    EVIDENCE.get_or_init(|| Mutex::new(Evidence::default()))
}

thread_local! {
    /// Names of instrumented locks this thread currently holds, in
    /// acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII record of one instrumented lock acquisition; pops the thread's
/// held stack on drop. Hold it exactly as long as the real guard.
#[must_use = "drop order defines the recorded lock lifetime"]
#[derive(Debug)]
pub struct LockTrace {
    name: &'static str,
}

impl Drop for LockTrace {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|n| *n == self.name) {
                held.remove(pos);
            }
        });
    }
}

/// Records the acquisition of the named lock: one `held → name` edge for
/// every lock this thread already holds, then pushes `name` onto the
/// thread's held stack. Returns `None` (and records nothing) when the
/// sanitizer is off. Call immediately *before* the real acquisition so a
/// blocked acquire is still visible in the graph.
pub fn trace(name: &'static str) -> Option<LockTrace> {
    if !enabled() {
        return None;
    }
    HELD.with(|held| {
        let held_now: Vec<&'static str> = held.borrow().clone();
        if !held_now.is_empty() {
            // Poison recovery: the evidence is a monotone set, valid even
            // if another thread panicked mid-insert.
            let mut ev = evidence().lock().unwrap_or_else(|p| p.into_inner());
            for h in held_now {
                ev.edges.insert((h.to_string(), name.to_string()));
            }
        }
        held.borrow_mut().push(name);
    });
    Some(LockTrace { name })
}

/// Evaluates the fixed IEEE-754 battery on the calling thread and folds
/// the result bits into one FNV-1a digest. Two threads on the same
/// conforming float environment produce the same value; flush-to-zero,
/// directed rounding, or fast-math-style contraction each perturb it.
pub fn float_env_probe() -> u64 {
    // `black_box` keeps the battery an actual runtime computation on the
    // calling thread instead of a compile-time constant.
    use std::hint::black_box;
    let tiny = black_box(f64::MIN_POSITIVE) / black_box(2.0); // subnormal unless FTZ
    let rne = black_box(1.0_f64) + black_box(f64::EPSILON) / black_box(2.0);
    let repr = black_box(0.1_f64) + black_box(0.2_f64); // classic 0.30000000000000004
    let over = black_box(f64::MAX) * black_box(2.0); // +inf
    let nan = black_box(f64::NAN) + black_box(1.0);
    let fused = black_box(0.1_f64).mul_add(black_box(10.0), black_box(-1.0));
    let unfused = black_box(0.1_f64) * black_box(10.0) - black_box(1.0);
    let words = [
        tiny.to_bits(),
        rne.to_bits(),
        repr.to_bits(),
        over.to_bits(),
        u64::from(nan.is_nan()),
        fused.to_bits(),
        unfused.to_bits(),
        u64::from(tiny != 0.0), // subnormals survive
    ];
    let mut h = Fnv1a::default();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Records the calling thread's [`float_env_probe`] into the process-wide
/// probe set. No-op when the sanitizer is off. Instrumented executors call
/// this once per worker thread.
pub fn record_probe() {
    if !enabled() {
        return;
    }
    let probe = float_env_probe();
    evidence()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .probes
        .insert(probe);
}

/// Snapshot of the evidence gathered so far, with cycles elaborated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Sorted `held → acquired` nesting edges.
    pub edges: Vec<(String, String)>,
    /// Elementary cycles in the edge graph (each a deadlock potential),
    /// deterministically ordered; empty for a well-ordered run.
    pub cycles: Vec<Vec<String>>,
    /// Distinct per-thread float-environment probe values; more than one
    /// entry means the workers' float environments drifted.
    pub probes: Vec<u64>,
}

impl SanitizeReport {
    /// True when no deadlock potential and no float drift was observed.
    pub fn healthy(&self) -> bool {
        self.cycles.is_empty() && self.probes.len() <= 1
    }

    /// FNV-1a digest over the whole report — the "deadlock-potential
    /// digest" verify.sh compares across `CS_THREADS` settings. The
    /// inputs are sorted sets, so the digest is independent of thread
    /// timing and worker count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for (a, b) in &self.edges {
            h.write(a.as_bytes());
            h.write(b"->");
            h.write(b.as_bytes());
            h.write(b";");
        }
        h.write(b"|cycles:");
        h.write(&(self.cycles.len() as u64).to_le_bytes());
        h.write(b"|probes:");
        for p in &self.probes {
            h.write(&p.to_le_bytes());
        }
        h.finish()
    }

    /// The report restricted to edges whose lock names start with
    /// `prefix` — lets a test reason about its own locks while unrelated
    /// suites record into the same process-global graph.
    pub fn filtered(&self, prefix: &str) -> SanitizeReport {
        let edges: Vec<(String, String)> = self
            .edges
            .iter()
            .filter(|(a, b)| a.starts_with(prefix) && b.starts_with(prefix))
            .cloned()
            .collect();
        SanitizeReport {
            cycles: cycles_in(&edges),
            edges,
            probes: self.probes.clone(),
        }
    }
}

/// Builds the current [`SanitizeReport`] from the process-global evidence.
pub fn report() -> SanitizeReport {
    let ev = evidence().lock().unwrap_or_else(|p| p.into_inner());
    let edges: Vec<(String, String)> = ev.edges.iter().cloned().collect();
    let probes: Vec<u64> = ev.probes.iter().copied().collect();
    drop(ev);
    SanitizeReport {
        cycles: cycles_in(&edges),
        edges,
        probes,
    }
}

/// Elementary cycles of a lock-order graph, found by depth-first search
/// from every node in sorted order. Each cycle is reported once, rotated
/// so its lexicographically smallest node leads, as the node sequence
/// `[a, b, .., a]`-without-the-final-repeat. Deterministic: input edges
/// are sorted first and neighbors visited in sorted order.
pub fn cycles_in(edges: &[(String, String)]) -> Vec<Vec<String>> {
    let mut sorted: Vec<&(String, String)> = edges.iter().collect();
    sorted.sort();
    let mut adj: std::collections::BTreeMap<&str, Vec<&str>> = std::collections::BTreeMap::new();
    for (a, b) in sorted {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = vec![start];
        dfs_cycles(start, &adj, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}

fn dfs_cycles<'a>(
    node: &'a str,
    adj: &std::collections::BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    cycles: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = path.iter().position(|n| *n == next) {
            // Found a cycle: path[pos..] ++ next. Normalize rotation.
            let cyc: Vec<&str> = path[pos..].to_vec();
            let min_at = cyc
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let normalized: Vec<String> = (0..cyc.len())
                .map(|i| cyc[(min_at + i) % cyc.len()].to_string())
                .collect();
            cycles.insert(normalized);
            continue;
        }
        if path.len() > 64 {
            continue; // lock graphs are tiny; bound pathological inputs
        }
        path.push(next);
        dfs_cycles(next, adj, path, cycles);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let edges = vec![e("a", "b"), e("b", "c"), e("a", "c")];
        assert!(cycles_in(&edges).is_empty());
    }

    #[test]
    fn two_node_cycle_is_found_once() {
        let edges = vec![e("a", "b"), e("b", "a")];
        let cycles = cycles_in(&edges);
        assert_eq!(cycles, vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let edges = vec![e("a", "a")];
        assert_eq!(cycles_in(&edges), vec![vec!["a".to_string()]]);
    }

    #[test]
    fn three_node_cycle_normalized_rotation() {
        // Same cycle entered from every node: reported once, min-first.
        let edges = vec![e("c", "a"), e("a", "b"), e("b", "c")];
        let cycles = cycles_in(&edges);
        assert_eq!(
            cycles,
            vec![vec!["a".to_string(), "b".to_string(), "c".to_string()]]
        );
    }

    #[test]
    fn cycle_detection_is_deterministic() {
        let edges = vec![e("b", "a"), e("a", "b"), e("c", "d"), e("d", "c")];
        let first = cycles_in(&edges);
        let mut reversed: Vec<(String, String)> = edges.clone();
        reversed.reverse();
        assert_eq!(first, cycles_in(&reversed));
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn float_probe_is_stable_on_one_thread() {
        assert_eq!(float_env_probe(), float_env_probe());
    }

    #[test]
    fn float_probe_agrees_across_threads() {
        let here = float_env_probe();
        let there = std::thread::spawn(float_env_probe)
            .join()
            .expect("probe thread");
        assert_eq!(here, there, "float environment drifted between threads");
    }

    #[test]
    fn digest_depends_on_edges_and_probes() {
        let base = SanitizeReport {
            edges: vec![e("a", "b")],
            cycles: Vec::new(),
            probes: vec![1],
        };
        let mut other = base.clone();
        other.edges.push(e("b", "c"));
        assert_ne!(base.digest(), other.digest());
        let mut drifted = base.clone();
        drifted.probes.push(2);
        assert_ne!(base.digest(), drifted.digest());
        assert_eq!(base.digest(), base.clone().digest());
    }

    #[test]
    fn healthy_flags_cycles_and_drift() {
        let ok = SanitizeReport {
            edges: vec![e("a", "b")],
            cycles: Vec::new(),
            probes: vec![1],
        };
        assert!(ok.healthy());
        let cyc = SanitizeReport {
            cycles: vec![vec!["a".to_string()]],
            ..ok.clone()
        };
        assert!(!cyc.healthy());
        let drift = SanitizeReport {
            probes: vec![1, 2],
            ..ok
        };
        assert!(!drift.healthy());
    }

    #[test]
    fn filtered_restricts_edges_and_recomputes_cycles() {
        let rep = SanitizeReport {
            edges: vec![e("fx.a", "fx.b"), e("fx.b", "fx.a"), e("pool.x", "fx.a")],
            cycles: Vec::new(),
            probes: vec![7],
        };
        let fx = rep.filtered("fx.");
        assert_eq!(fx.edges.len(), 2);
        assert_eq!(fx.cycles.len(), 1);
        let pool = rep.filtered("pool.");
        assert!(pool.edges.is_empty() && pool.cycles.is_empty());
    }

    #[test]
    fn trace_records_nesting_edges_when_forced() {
        // Process-global state: use unique names and filter on them.
        force(true);
        {
            let _a = trace("sanitest.outer");
            let _b = trace("sanitest.inner");
        }
        record_probe();
        let rep = report().filtered("sanitest.");
        assert_eq!(
            rep.edges,
            vec![e("sanitest.outer", "sanitest.inner")],
            "nesting edge recorded"
        );
        assert!(rep.cycles.is_empty());
        // Stack popped: a fresh acquisition records no new edge pair.
        {
            let _c = trace("sanitest.solo");
        }
        let rep = report().filtered("sanitest.solo");
        assert!(rep.edges.is_empty());
    }
}
