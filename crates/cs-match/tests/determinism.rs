//! Determinism contract for the ANN matching path (DESIGN.md §8, §14):
//! the ranked output of [`AnnMatcher`] and the RRF-fused
//! [`HybridMatcher`] must be bit-identical — pairs and scores — under
//! every execution policy: inline, pinned pools of 1/2/3/8 workers, and
//! the global pool `CS_THREADS` sizes. `scripts/verify.sh` additionally
//! sweeps the env var itself over the fault-matrix binaries, which run
//! this matcher end to end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cs_linalg::pool::{fault, ExecPolicy, ThreadPool};
use cs_linalg::{Matrix, Xoshiro256};
use cs_match::{AnnMatcher, ElementSet, HybridMatcher, NamedSet};
use cs_schema::ElementId;

/// A seeded multi-schema workload: `schemas` gaussian signature blocks
/// plus synthetic display names with overlapping vocabulary so both the
/// dense and the lexical leg produce non-trivial rankings.
fn workload(schemas: usize, per: usize, dim: usize, seed: u64) -> (Vec<ElementSet>, Vec<NamedSet>) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut sets = Vec::new();
    let mut names = Vec::new();
    for k in 0..schemas {
        let m = Matrix::from_fn(per, dim, |_, _| rng.next_gaussian());
        sets.push(ElementSet::full(k, m));
        let ids: Vec<ElementId> = (0..per).map(|e| ElementId::new(k, e)).collect();
        let labels: Vec<String> = (0..per)
            .map(|e| format!("customer_order_{}_{k}", e % (per / 2).max(1)))
            .collect();
        names.push(NamedSet::new(k, ids, labels));
    }
    (sets, names)
}

/// Every policy the contract covers, labelled for failure messages.
fn policies() -> Vec<(String, ExecPolicy)> {
    let mut out = vec![("sequential".to_string(), ExecPolicy::Sequential)];
    for n in [1usize, 2, 3, 8] {
        out.push((
            format!("pool-{n}"),
            ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(n))),
        ));
    }
    out.push(("global".to_string(), ExecPolicy::Global));
    out
}

/// Every policy must reproduce the inline ranking bit for bit: the
/// chunk-deal pool only changes who computes a query's neighbors, never
/// the result.
#[test]
fn ann_matcher_is_bit_identical_across_policies() {
    let (sets, _) = workload(4, 40, 24, 0xDE71);
    let reference = AnnMatcher::new(5)
        .exec(ExecPolicy::Sequential)
        .ranked_pairs(&sets);
    assert!(!reference.is_empty());
    for (name, exec) in policies() {
        let got = AnnMatcher::new(5).exec(exec).ranked_pairs(&sets);
        assert_eq!(reference, got, "AnnMatcher ranking diverged under {name}");
    }
}

/// The fused pipeline inherits the contract: RRF over the dense and
/// lexical rankings is deterministic, so the hybrid output must also be
/// bit-identical under every policy its ANN channel runs on.
#[test]
fn hybrid_pipeline_is_bit_identical_across_policies() {
    let (sets, names) = workload(3, 30, 16, 0xF0_5E);
    let at = |exec: ExecPolicy| {
        HybridMatcher::new(AnnMatcher::new(4).exec(exec), names.clone()).ranked_pairs(&sets)
    };
    let reference = at(ExecPolicy::Sequential);
    assert!(!reference.is_empty());
    for (name, exec) in policies() {
        assert_eq!(reference, at(exec), "hybrid ranking diverged under {name}");
    }
}

/// Repeated runs of the same matcher instance are bit-identical — no
/// hidden state accumulates across calls.
#[test]
fn repeated_runs_are_bit_identical() {
    let (sets, names) = workload(3, 24, 16, 0x0005_EED5);
    let ann = AnnMatcher::new(4);
    assert_eq!(ann.ranked_pairs(&sets), ann.ranked_pairs(&sets));
    let hybrid = HybridMatcher::new(ann, names);
    assert_eq!(hybrid.ranked_pairs(&sets), hybrid.ranked_pairs(&sets));
}

/// A worker panic inside the ANN fan-out reaches the caller with its
/// detail (the pool's fault hook fires for ANN batches like any other),
/// and once disarmed the same pool serves the reference ranking again.
#[test]
fn ann_worker_panic_carries_detail_and_pool_recovers() {
    let (sets, _) = workload(3, 20, 16, 0xFA_17);
    let reference = AnnMatcher::new(4)
        .exec(ExecPolicy::Sequential)
        .ranked_pairs(&sets);
    let pool = Arc::new(ThreadPool::with_threads(2));
    let target = pool.tag();
    let matcher = AnnMatcher::new(4).exec(ExecPolicy::Pool(pool));
    {
        let _armed = fault::armed(move |site| {
            if site.pool == Some(target) && site.chunk == 0 {
                panic!("injected fault: ann query worker");
            }
        });
        let payload = catch_unwind(AssertUnwindSafe(|| matcher.ranked_pairs(&sets)))
            .expect_err("the armed fault must surface on the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("injected fault: ann query worker"),
            "panic message lost the worker detail: {message:?}"
        );
    }
    assert_eq!(matcher.ranked_pairs(&sets), reference);
}
