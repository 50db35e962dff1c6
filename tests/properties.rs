//! Property-based integration tests: scoping invariants must hold on
//! arbitrary synthetic matching scenarios, not just the OC3 datasets.
//!
//! Driven by the in-workspace `cs_linalg::check` harness (hermetic
//! replacement for proptest); enable the `proptest-tests` feature for a
//! deeper fuzzing multiplier.

use std::collections::HashSet;
use std::sync::Arc;

use collaborative_scoping::core::{
    scoping::scope_from_scores, CollaborativeSweep, ExecPolicy, ThreadPool,
};
use collaborative_scoping::datasets::codec::dataset_to_bytes;
use collaborative_scoping::datasets::synthetic::{
    all_unlinkable, generate, SizeDistribution, SyntheticConfig,
};
use collaborative_scoping::linalg::check::{run, Gen};
use collaborative_scoping::matching::CandidatePair;
use collaborative_scoping::prelude::*;

const CASES: usize = 12;

/// The two execution policies every metamorphic property is asserted
/// under: outcomes must be bit-identical between them.
fn exec_policies() -> [ExecPolicy; 2] {
    [
        ExecPolicy::Sequential,
        ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(3))),
    ]
}

/// Start offset of each schema's decision block in unified row order.
fn block_offsets(sigs: &SchemaSignatures) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(sigs.schema_count());
    let mut acc = 0;
    for k in 0..sigs.schema_count() {
        offsets.push(acc);
        acc += sigs.schema_len(k);
    }
    offsets
}

/// Draws a config across the whole generator knob surface. The shared
/// pool (24–32) is kept large enough that even the worst drawn
/// combination (Fixed sizes, ratio 0.9, overlap 0.5, 4 schemas) leaves
/// every schema's accessible region at least as large as its concept
/// picks, so every drawn config is valid by construction.
fn synthetic_config(g: &mut Gen) -> SyntheticConfig {
    let sizes = match g.usize_in(0, 2) {
        0 => SizeDistribution::Fixed,
        1 => SizeDistribution::Uniform { min: 4, max: 10 },
        _ => SizeDistribution::Ramp { min: 4, max: 12 },
    };
    let ratio = if g.usize_in(0, 2) == 0 {
        None
    } else {
        Some(g.f64_in(0.1, 0.9))
    };
    SyntheticConfig {
        schemas: g.usize_in(2, 4),
        shared_concepts: g.usize_in(24, 32),
        concepts_per_schema: g.usize_in(4, 7),
        private_per_schema: g.usize_in(0, 9),
        table_width: 5,
        alien_elements: 0,
        linkable_ratio: ratio,
        lexicon_overlap: g.f64_in(0.5, 1.0),
        naming_noise: g.f64_in(0.0, 0.8),
        subtype_depth: g.usize_in(0, 2),
        sizes,
        seed: g.u64_below(1000),
    }
}

#[test]
fn collaborative_scoping_invariants() {
    run("collaborative_scoping_invariants", CASES, |g| {
        let config = synthetic_config(g);
        let v = g.f64_in(0.05, 0.99);
        let ds = generate(&config);
        let encoder = SignatureEncoder::default();
        let sigs = encode_catalog(&encoder, &ds.catalog);
        let run = CollaborativeScoper::new(v).run(&sigs).unwrap();

        // Output covers every element exactly once.
        assert_eq!(run.outcome.len(), ds.catalog.element_count());
        // Votes bounded by the number of foreign models.
        let foreign = ds.catalog.schema_count() - 1;
        assert!(run.accept_votes.iter().all(|&a| a <= foreign));
        // Decisions agree with votes under the ANY rule.
        for (d, &a) in run.outcome.decisions.iter().zip(run.accept_votes.iter()) {
            assert_eq!(*d, a >= 1);
        }
        // Deterministic.
        let again = CollaborativeScoper::new(v).run(&sigs).unwrap();
        assert_eq!(run.outcome.decisions, again.outcome.decisions);
        // Cost accounting.
        assert_eq!(run.cost.pass_operations, sigs.total_len() * foreign);
    });
}

#[test]
fn sweep_matches_direct_on_synthetic() {
    run("sweep_matches_direct_on_synthetic", CASES, |g| {
        let config = synthetic_config(g);
        let v = g.f64_in(0.05, 0.99);
        let ds = generate(&config);
        let encoder = SignatureEncoder::default();
        let sigs = encode_catalog(&encoder, &ds.catalog);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        // `v = 1` keeps every component, where each error is round-off.
        // Equal decisions under all three rules pin the vote counts.
        for v in [v, 1.0] {
            for rule in [
                CombinationRule::Any,
                CombinationRule::All,
                CombinationRule::AtLeast(2),
            ] {
                let fast = sweep.assess_with_rule(v, rule).expect("valid v");
                let slow = CollaborativeScoper::new(v)
                    .with_rule(rule)
                    .run(&sigs)
                    .unwrap()
                    .outcome;
                assert_eq!(fast.decisions, slow.decisions, "v={v}, {rule:?}");
            }
        }
    });
}

#[test]
fn global_scoping_keep_count_and_nesting() {
    run("global_scoping_keep_count_and_nesting", CASES, |g| {
        let n = g.usize_in(2, 59);
        let scores = g.vec_f64(n, 0.0, 100.0);
        let p1 = g.f64_in(0.0, 1.0);
        let p2 = g.f64_in(0.0, 1.0);
        // Wrap scores in a one-schema signature set.
        let m = collaborative_scoping::linalg::Matrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64);
        let sigs = SchemaSignatures::from_matrices(vec![m], vec!["s".into()]);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = scope_from_scores("t", &sigs, &scores, lo);
        let b = scope_from_scores("t", &sigs, &scores, hi);
        assert_eq!(a.kept_count(), (lo * n as f64).round() as usize);
        assert_eq!(b.kept_count(), (hi * n as f64).round() as usize);
        // Nesting: stricter keep set is contained in the looser one.
        assert!(a.kept().is_subset(&b.kept()));
    });
}

#[test]
fn match_quality_bounds() {
    run("match_quality_bounds", CASES * 4, |g| {
        let c = g.usize_in(0, 499);
        let tp_frac = g.f64_in(0.0, 1.0);
        let truth = g.usize_in(1, 99);
        let cart = g.usize_in(500, 4999);
        let tp = ((c as f64 * tp_frac) as usize).min(truth);
        let q = match_quality(c, tp, truth, cart);
        assert!((0.0..=1.0).contains(&q.pq));
        assert!((0.0..=1.0).contains(&q.pc));
        assert!((0.0..=1.0).contains(&q.f1));
        assert!(q.rr <= 1.0);
        // F1 is between 0 and the max of PQ/PC.
        assert!(q.f1 <= q.pq.max(q.pc) + 1e-12);
    });
}

#[test]
fn alien_schema_is_pruned_harder_than_related() {
    run("alien_schema_is_pruned_harder_than_related", CASES, |g| {
        let seed = g.u64_below(200);
        let config = SyntheticConfig {
            schemas: 3,
            shared_concepts: 20,
            concepts_per_schema: 14,
            private_per_schema: 4,
            table_width: 6,
            alien_elements: 24,
            seed,
            ..SyntheticConfig::default()
        };
        let ds = generate(&config);
        let encoder = SignatureEncoder::default();
        let sigs = encode_catalog(&encoder, &ds.catalog);
        let run = CollaborativeScoper::new(0.8).run(&sigs).unwrap();
        let alien = 3;
        let alien_frac = run.outcome.kept_in_schema(alien) as f64 / sigs.schema_len(alien) as f64;
        let related_frac: f64 = (0..3)
            .map(|k| run.outcome.kept_in_schema(k) as f64 / sigs.schema_len(k) as f64)
            .sum::<f64>()
            / 3.0;
        assert!(
            alien_frac < related_frac,
            "alien kept {alien_frac:.2} vs related {related_frac:.2} (seed {seed})"
        );
    });
}

/// Metamorphic: the order schemas arrive in is presentation, not
/// signal. Every per-element verdict must survive a random permutation
/// of the schema order — the local models are per-schema and the ANY
/// rule counts foreign votes, so nothing may depend on position.
#[test]
fn schema_order_permutation_preserves_verdicts() {
    run("schema_order_permutation_preserves_verdicts", CASES, |g| {
        let config = synthetic_config(g);
        let v = g.f64_in(0.2, 0.95);
        let ds = generate(&config);
        let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
        let k = sigs.schema_count();
        // Fisher–Yates on the harness rng: perm[i] = original index of
        // the schema now sitting at position i.
        let mut perm: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = g.usize_in(0, i);
            perm.swap(i, j);
        }
        let permuted = SchemaSignatures::from_matrices(
            perm.iter().map(|&p| sigs.schema(p).clone()).collect(),
            perm.iter()
                .map(|&p| sigs.schema_names()[p].clone())
                .collect(),
        );

        let mut per_policy: Vec<Vec<bool>> = Vec::new();
        for exec in exec_policies() {
            let scope = |s: &SchemaSignatures| {
                CollaborativeScoper::builder()
                    .explained_variance(v)
                    .exec(exec.clone())
                    .build()
                    .expect("valid v")
                    .run(s)
                    .expect("healthy synthetic catalog")
                    .outcome
            };
            let base = scope(&sigs);
            let shuffled = scope(&permuted);
            let base_off = block_offsets(&sigs);
            let perm_off = block_offsets(&permuted);
            for (pos, &orig) in perm.iter().enumerate() {
                let len = sigs.schema_len(orig);
                let a = &base.decisions[base_off[orig]..base_off[orig] + len];
                let b = &shuffled.decisions[perm_off[pos]..perm_off[pos] + len];
                assert_eq!(a, b, "schema {orig} verdicts changed under reordering");
            }
            per_policy.push(base.decisions);
        }
        // Bit-identical across Sequential and a pinned pool.
        assert_eq!(per_policy[0], per_policy[1]);
    });
}

/// Metamorphic: scoping only ever removes — the streamlined catalog S'
/// is a subset of the input S, element for element and schema for
/// schema, under every execution policy.
#[test]
fn streamlined_catalog_is_subset_of_input() {
    run("streamlined_catalog_is_subset_of_input", CASES, |g| {
        let config = synthetic_config(g);
        let v = g.f64_in(0.1, 0.99);
        let ds = generate(&config);
        let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
        let all: HashSet<ElementId> = sigs.element_ids().into_iter().collect();

        let mut per_policy: Vec<ScopingOutcome> = Vec::new();
        for exec in exec_policies() {
            let outcome = CollaborativeScoper::builder()
                .explained_variance(v)
                .exec(exec)
                .build()
                .expect("valid v")
                .run(&sigs)
                .expect("healthy synthetic catalog")
                .outcome;
            let kept = outcome.kept();
            assert!(kept.is_subset(&all), "kept an element not in S");
            // Projection keeps every kept element plus the container
            // table of any kept attribute — never more than S, never
            // fewer than the kept set, and schemas stay index-aligned.
            let streamlined = outcome.streamlined(&ds.catalog);
            assert!(streamlined.element_count() <= ds.catalog.element_count());
            assert!(streamlined.element_count() >= kept.len());
            assert_eq!(streamlined.schema_count(), ds.catalog.schema_count());
            // Keeping everything is the identity on size.
            assert_eq!(
                ds.catalog.project(&all).element_count(),
                ds.catalog.element_count()
            );
            per_policy.push(outcome);
        }
        assert_eq!(per_policy[0], per_policy[1]);
    });
}

/// Metamorphic monotonicity — stated honestly. The naive claim
/// "|S'| shrinks monotonically as v drops" is empirically FALSE: with
/// `schemas: 3, shared_concepts: 12, concepts_per_schema: 8,
/// private_per_schema: 4, table_width: 5, alien_elements: 6, seed: 2`,
/// kept counts along v = 0.95, 0.85, …, 0.55 are 36, 41, 43, 40, 42 —
/// lowering v shrinks every local model, but both own-range and foreign
/// reconstruction errors move with it, so the acceptance set can
/// oscillate. What the design DOES guarantee, and what this test pins:
///
/// 1. per-schema component counts are monotone non-increasing as v
///    decreases (explained-variance truncation is nested), and
/// 2. the kept set is nested in rule strictness:
///    kept(AtLeast(j+1)) ⊆ kept(AtLeast(j)), with All ≡ AtLeast(k−1).
///
/// Both hold bit-identically under Sequential and pooled execution.
#[test]
fn sweep_monotonicity_in_components_and_rule_strictness() {
    run(
        "sweep_monotonicity_in_components_and_rule_strictness",
        CASES,
        |g| {
            let config = synthetic_config(g);
            let v = g.f64_in(0.2, 0.95);
            let ds = generate(&config);
            let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
            let foreign = sigs.schema_count() - 1;

            let mut digests: Vec<Vec<Vec<bool>>> = Vec::new();
            for exec in exec_policies() {
                let sweep =
                    CollaborativeSweep::prepare_with(&sigs, &exec).expect("healthy catalog");

                // 1. Nested truncation: fewer components at lower v.
                let ladder = [0.95, 0.75, 0.55, 0.35, 0.15];
                for pair in ladder.windows(2) {
                    let hi = sweep.components_at(pair[0]);
                    let lo = sweep.components_at(pair[1]);
                    for (schema, (h, l)) in hi.iter().zip(lo.iter()).enumerate() {
                        assert!(
                            l <= h,
                            "schema {schema}: components grew from {h} to {l} as v fell \
                             from {} to {}",
                            pair[0],
                            pair[1]
                        );
                    }
                }

                // 2. Rule-strictness nesting at a fixed v.
                let mut outcomes = Vec::new();
                let mut prev = sweep
                    .assess_with_rule(v, CombinationRule::AtLeast(1))
                    .expect("valid v");
                assert_eq!(
                    prev.decisions,
                    sweep
                        .assess_with_rule(v, CombinationRule::Any)
                        .expect("valid v")
                        .decisions,
                    "Any must equal AtLeast(1)"
                );
                for j in 2..=foreign {
                    let cur = sweep
                        .assess_with_rule(v, CombinationRule::AtLeast(j))
                        .expect("valid v");
                    assert!(
                        cur.kept().is_subset(&prev.kept()),
                        "AtLeast({j}) kept an element AtLeast({}) pruned",
                        j - 1
                    );
                    outcomes.push(prev.decisions.clone());
                    prev = cur;
                }
                assert_eq!(
                    prev.decisions,
                    sweep
                        .assess_with_rule(v, CombinationRule::All)
                        .expect("valid v")
                        .decisions,
                    "All must equal AtLeast(k-1)"
                );
                outcomes.push(prev.decisions);
                digests.push(outcomes);
            }
            // Bit-identical across Sequential and a pinned pool.
            assert_eq!(digests[0], digests[1]);
        },
    );
}

/// Generator self-consistency over the whole knob surface: the same
/// config must regenerate byte-identically (binary codec), every
/// annotated linkage must reference attributes that exist, and the
/// sub-typed pairs must connect distinct schemas.
#[test]
fn generator_is_self_consistent_across_knobs() {
    run("generator_is_self_consistent_across_knobs", CASES, |g| {
        let config = synthetic_config(g);
        let ds = generate(&config);
        assert_eq!(
            dataset_to_bytes(&ds),
            dataset_to_bytes(&generate(&config)),
            "same seed must regenerate byte-identically"
        );
        assert_eq!(ds.catalog.schema_count(), config.schemas);
        for p in ds.linkages.iter() {
            for id in [p.a, p.b] {
                assert!(id.schema < ds.catalog.schema_count(), "schema out of range");
                assert!(
                    id.element < ds.catalog.schema(id.schema).attribute_count(),
                    "linkage references a non-attribute element"
                );
            }
            assert_ne!(p.a.schema, p.b.schema, "inter-schema linkages only");
        }
    });
}

/// The linkable-ratio knob is honest: the annotated linkable fraction
/// never exceeds the eligible fraction `round(r·n)/n` and tracks the
/// knob closely when the pool is tight enough that shared picks
/// collide (full overlap, pool = schema size, 4 schemas).
#[test]
fn linkable_ratio_knob_tracks_annotated_fraction() {
    run(
        "linkable_ratio_knob_tracks_annotated_fraction",
        CASES,
        |g| {
            let r = g.f64_in(0.4, 0.95);
            let config = SyntheticConfig {
                schemas: 4,
                shared_concepts: 12,
                concepts_per_schema: 8,
                private_per_schema: 4,
                table_width: 5,
                alien_elements: 0,
                linkable_ratio: Some(r),
                lexicon_overlap: 1.0,
                naming_noise: 0.0,
                subtype_depth: 0,
                sizes: SizeDistribution::Fixed,
                seed: g.u64_below(1000),
            };
            let ds = generate(&config);
            let linkable = ds.linkages.linkable_per_schema(&ds.catalog);
            for (k, &linked) in linkable.iter().enumerate().take(config.schemas) {
                let n = ds.catalog.schema(k).attribute_count() as f64;
                let annotated = linked as f64 / n;
                let eligible = (r * n).round() / n;
                assert!(
                    annotated <= eligible + 1e-12,
                    "schema {k}: annotated {annotated:.3} exceeds eligible {eligible:.3}"
                );
                assert!(
                    (annotated - r).abs() <= 0.25,
                    "schema {k}: annotated {annotated:.3} drifted from knob {r:.3} \
                 (seed {})",
                    config.seed
                );
            }
        },
    );
}

/// Metamorphic: `linkable_ratio = 0` and the `all_unlinkable`
/// constructor are the same source, byte for byte, and both produce an
/// empty positive class.
#[test]
fn zero_linkable_ratio_equals_all_unlinkable() {
    run("zero_linkable_ratio_equals_all_unlinkable", CASES, |g| {
        let config = synthetic_config(g);
        let a = all_unlinkable(&config);
        let b = generate(&SyntheticConfig {
            linkable_ratio: Some(0.0),
            ..config.clone()
        });
        assert!(a.linkages.is_empty(), "positive class must be empty");
        assert_eq!(dataset_to_bytes(&a), dataset_to_bytes(&b));
    });
}

/// Metamorphic: naming noise rewrites presentation only. The noise pass
/// draws from its own salted RNG stream, so any noise level leaves the
/// schema sizes and the entire ground-truth linkage set untouched, and
/// level `0` is byte-stable.
#[test]
fn naming_noise_preserves_ground_truth() {
    run("naming_noise_preserves_ground_truth", CASES, |g| {
        let mut config = synthetic_config(g);
        config.naming_noise = 0.0;
        let clean = generate(&config);
        let noisy = generate(&SyntheticConfig {
            naming_noise: g.f64_in(0.3, 1.0),
            ..config.clone()
        });
        assert_eq!(clean.catalog.schema_count(), noisy.catalog.schema_count());
        for k in 0..clean.catalog.schema_count() {
            assert_eq!(
                clean.catalog.schema(k).element_count(),
                noisy.catalog.schema(k).element_count(),
                "noise changed schema {k}'s size"
            );
        }
        assert_eq!(clean.linkages.len(), noisy.linkages.len());
        for p in clean.linkages.iter() {
            assert!(
                noisy.linkages.contains_pair(p.a, p.b),
                "noise dropped linkage {:?}-{:?}",
                p.a,
                p.b
            );
        }
        // Level 0 skips the noise pass entirely: byte-identical.
        assert_eq!(
            dataset_to_bytes(&clean),
            dataset_to_bytes(&generate(&config))
        );
    });
}

/// Full attribute+table element sets, one per schema, in canonical order.
fn full_sets(sigs: &SchemaSignatures) -> Vec<ElementSet> {
    (0..sigs.schema_count())
        .map(|k| ElementSet::full(k, sigs.schema(k).clone()))
        .collect()
}

/// Element display names aligned with [`ElementSet::full`] ordering.
fn named_sets_of(ds: &Dataset) -> Vec<NamedSet> {
    (0..ds.catalog.schema_count())
        .map(|k| NamedSet::full(k, ds.catalog.schema(k)))
        .collect()
}

/// The exact tie-inclusive cross-schema top-`k` pair set: for every
/// element, the pairs to its `k` nearest foreign elements by full-dim
/// squared Euclidean distance, keeping boundary ties. This is the
/// bounded `k′` reference the ANN matcher must stay inside.
fn exact_top_k_pairs(sets: &[ElementSet], k: usize) -> HashSet<CandidatePair> {
    use collaborative_scoping::linalg::vecops::sq_euclidean;
    let rows: Vec<(usize, ElementId, &[f64])> = sets
        .iter()
        .flat_map(|s| (0..s.ids.len()).map(move |i| (s.schema, s.ids[i], s.signatures.row(i))))
        .collect();
    let mut pairs = HashSet::new();
    for &(schema, id, q) in &rows {
        let mut scored: Vec<(ElementId, f64)> = rows
            .iter()
            .filter(|(s, _, _)| *s != schema)
            .map(|&(_, other, r)| (other, sq_euclidean(q, r)))
            .collect();
        scored.sort_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
        if scored.len() > k {
            // Tie-inclusive boundary: keep everything scoring no worse
            // than the k-th entry.
            let bound = scored[k - 1].1;
            scored.retain(|(_, d)| total_cmp_f64(d, &bound) != std::cmp::Ordering::Greater);
        }
        for (other, _) in scored {
            pairs.insert(CandidatePair::new(id, other));
        }
    }
    pairs
}

/// With a candidate budget covering the whole catalog the two-stage ANN
/// path degenerates to exact retrieval, so every emitted pair must lie
/// inside the exact tie-inclusive top-`k′` pair set (`k′ = k` plus
/// boundary ties) — the prefilter and banding may reorder work but can
/// never invent a pair the flat index would not rank.
#[test]
fn ann_pairs_are_a_subset_of_flat_top_k_prime() {
    run("ann_pairs_are_a_subset_of_flat_top_k_prime", CASES, |g| {
        let config = synthetic_config(g);
        let ds = generate(&config);
        let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
        let sets = full_sets(&sigs);
        let k = g.usize_in(1, 4);
        let ann = AnnMatcher::with_config(AnnConfig {
            candidate_budget: sigs.total_len(),
            prefilter_dims: if g.usize_in(0, 1) == 0 { 0 } else { 8 },
            ..AnnConfig::with_k(k)
        });
        let pairs = ann.match_pairs(&sets);
        assert!(!pairs.is_empty(), "ANN found nothing on a healthy catalog");
        let reference = exact_top_k_pairs(&sets, k);
        for p in &pairs {
            assert!(
                reference.contains(p),
                "ANN emitted {p:?} outside the exact top-{k} (+ties) pair set"
            );
        }
    });
}

/// Recall gate across the generator knob surface: with a candidate
/// budget well below the catalog size, the banded index must still
/// recover at least 90% of each element's exact top-10 (sizes ×
/// unlinkable ratios × naming noise, all seeded).
#[test]
fn ann_recall_at_10_exceeds_floor_across_knob_grid() {
    use collaborative_scoping::embed::Lexicon;
    use collaborative_scoping::matching::{AnnIndex, FlatIndex};

    let encoder = SignatureEncoder::new(
        EncoderConfig {
            dim: 64,
            ..Default::default()
        },
        Lexicon::default_lexicon(),
    );
    for shared in [16usize, 28] {
        for unlinkable in [0.25f64, 0.5] {
            for noise in [0.0f64, 0.6] {
                let ds = generate(&SyntheticConfig {
                    schemas: 3,
                    shared_concepts: shared,
                    concepts_per_schema: shared / 2,
                    private_per_schema: shared / 4,
                    table_width: 6,
                    alien_elements: 0,
                    linkable_ratio: Some(1.0 - unlinkable),
                    naming_noise: noise,
                    seed: 0xA2_2B,
                    ..SyntheticConfig::default()
                });
                let sigs = encode_catalog(&encoder, &ds.catalog);
                let unified = sigs.unified();
                let rows = unified.rows();
                let config = AnnConfig {
                    candidate_budget: 48,
                    ..AnnConfig::with_k(10)
                };
                let index = AnnIndex::build(unified.clone(), config);
                let flat = FlatIndex::build(unified.clone());
                let mut hit = 0usize;
                let mut truth = 0usize;
                for q in 0..rows {
                    let exact: HashSet<usize> = flat
                        .search(unified.row(q), 10)
                        .into_iter()
                        .map(|(i, _)| i)
                        .collect();
                    let approx: HashSet<usize> = index
                        .search(unified.row(q), 10)
                        .into_iter()
                        .map(|(i, _)| i)
                        .collect();
                    hit += exact.intersection(&approx).count();
                    truth += exact.len();
                }
                let recall = hit as f64 / truth as f64;
                assert!(
                    recall >= 0.9,
                    "recall@10 = {recall:.3} < 0.9 at shared={shared} \
                     unlinkable={unlinkable} noise={noise} ({rows} rows)"
                );
            }
        }
    }
}

/// Metamorphic: the fused (dense + lexical, RRF) ranking is presentation
/// independent — permuting the order schemas are handed to the hybrid
/// matcher changes global row numbering, bucket fill order, and lexical
/// posting order, yet the ranked output (pairs AND scores) must be
/// bit-identical.
#[test]
fn hybrid_fused_ranking_is_invariant_under_schema_permutation() {
    run(
        "hybrid_fused_ranking_is_invariant_under_schema_permutation",
        CASES,
        |g| {
            let config = synthetic_config(g);
            let ds = generate(&config);
            let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
            let sets = full_sets(&sigs);
            let names = named_sets_of(&ds);
            let k = sets.len();
            let mut perm: Vec<usize> = (0..k).collect();
            for i in (1..k).rev() {
                let j = g.usize_in(0, i);
                perm.swap(i, j);
            }
            let sets_p: Vec<ElementSet> = perm.iter().map(|&p| sets[p].clone()).collect();
            let names_p: Vec<NamedSet> = perm.iter().map(|&p| names[p].clone()).collect();

            let ann = AnnMatcher::new(3);
            let base = HybridMatcher::new(ann.clone(), names).ranked_pairs(&sets);
            let shuffled = HybridMatcher::new(ann, names_p).ranked_pairs(&sets_p);
            assert_eq!(
                base, shuffled,
                "fused ranking changed under schema reordering (perm {perm:?})"
            );
        },
    );
}

/// Determinism across regenerations: the same seeded config regenerates
/// the catalog byte-identically (codec digest pattern), and the full ANN
/// + hybrid pipeline built on each copy emits bit-identical rankings.
#[test]
fn ann_pipeline_is_stable_across_catalog_regeneration() {
    run(
        "ann_pipeline_is_stable_across_catalog_regeneration",
        CASES,
        |g| {
            let config = synthetic_config(g);
            let first = generate(&config);
            let second = generate(&config);
            assert_eq!(dataset_to_bytes(&first), dataset_to_bytes(&second));

            let rank = |ds: &Dataset| {
                let sigs = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
                let sets = full_sets(&sigs);
                let ann = AnnMatcher::new(3).ranked_pairs(&sets);
                let hybrid =
                    HybridMatcher::new(AnnMatcher::new(3), named_sets_of(ds)).ranked_pairs(&sets);
                (ann, hybrid)
            };
            assert_eq!(rank(&first), rank(&second));
        },
    );
}

#[test]
fn encoder_is_deterministic_across_instances() {
    let ds = generate(&SyntheticConfig::default());
    let a = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
    let b = encode_catalog(&SignatureEncoder::default(), &ds.catalog);
    for k in 0..a.schema_count() {
        assert_eq!(a.schema(k).as_slice(), b.schema(k).as_slice());
    }
}
