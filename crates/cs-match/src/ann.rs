//! Sublinear approximate nearest-neighbor matching — the production path
//! behind the 100k-element scaling point (DESIGN.md §14).
//!
//! [`AnnIndex`] is the two-stage retrieval engine: a seeded
//! [`HyperplaneLsh`] over a *truncated* projection of the signatures
//! (the leading PCA components via [`TruncatedProjection`], so hashing
//! and prefiltering pay low-dimensional dot products), followed by an
//! exact full-dimension rerank of the surviving candidate budget.
//! [`AnnMatcher`] lifts the index into the [`Matcher`] trait by building
//! **one global index** over every schema's rows and excluding
//! same-schema hits at query time — per-schema indexes would put the
//! schema count back into the complexity and re-create the quadratic
//! cliff this module removes.
//!
//! A query does no full sort and no map lookup: bucket tables are flat
//! and binary-searched, the candidate union is a bitset, the prefilter
//! and rerank cuts are selections with their boundary ties, and only the
//! final `k`-plus-ties list is sorted. The matchers' self-queries reuse
//! each row's projection and bands from the build.
//!
//! Determinism contract: hyperplanes are drawn from a fixed seed, bucket
//! contents hold row indices in ascending order, query fan-out runs on
//! the chunk-deal pool ([`cs_linalg::pool`]) under the matcher's
//! [`ExecPolicy`], and every truncation is tie-inclusive on the exact
//! score — so results are bit-identical across execution policies and
//! `CS_THREADS`, and invariant to schema order (the projection fits in
//! canonical row order).

use crate::{dedup_pairs, CandidatePair, ElementSet, HyperplaneLsh, Matcher};
use cs_linalg::pool::ExecPolicy;
use cs_linalg::vecops::{cosine, sq_euclidean_rows, total_cmp_f64};
use cs_linalg::{Matrix, TruncatedProjection};
use cs_schema::ElementId;
use std::sync::Arc;

/// Tuning knobs for the ANN index and matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnConfig {
    /// Neighbors retrieved per query (`≥ 1`).
    pub k: usize,
    /// LSH tables (`≥ 1`); more tables trade build time for recall.
    pub tables: usize,
    /// Sign bits per band; `0` sizes automatically from the row count.
    pub band_bits: usize,
    /// Max candidates surviving the prefilter into the exact rerank;
    /// values below `k` are treated as `k`.
    pub candidate_budget: usize,
    /// Truncated-projection dimensionality for hashing/prefiltering;
    /// `0` disables the projection (hash in full dimension).
    pub prefilter_dims: usize,
    /// Seed for the hyperplane draws.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            k: 5,
            tables: 8,
            band_bits: 0,
            candidate_budget: 128,
            prefilter_dims: 16,
            seed: 0xA2_2B,
        }
    }
}

impl AnnConfig {
    /// Default configuration retrieving `k` neighbors per query.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Effective candidate budget (never below `k`).
    pub fn budget(&self) -> usize {
        self.candidate_budget.max(self.k)
    }

    fn validate(&self) {
        assert!(self.k >= 1, "top-k must be at least 1");
        assert!(self.tables >= 1, "need at least one LSH table");
        assert!(self.band_bits <= 63, "band bits must fit a u64");
    }

    /// Automatic band width: aim for a mean bucket occupancy of ~8 rows,
    /// clamped to `[4, 16]` bits.
    fn resolve_band_bits(&self, rows: usize) -> usize {
        if self.band_bits > 0 {
            return self.band_bits;
        }
        let mut bits = 4usize;
        while bits < 16 && (rows >> bits) > 8 {
            bits += 1;
        }
        bits
    }
}

/// Keeps the first `limit` entries of a `(score, index)`-sorted list plus
/// every entry tied with the boundary score, so the kept *set* does not
/// depend on index order (and hence not on schema order).
pub(crate) fn truncate_with_ties(scored: &mut Vec<(usize, f64)>, limit: usize) {
    if limit == 0 {
        scored.clear();
        return;
    }
    if scored.len() <= limit {
        return;
    }
    let boundary = scored[limit - 1].1;
    let mut end = limit;
    while end < scored.len() && total_cmp_f64(&scored[end].1, &boundary).is_eq() {
        end += 1;
    }
    scored.truncate(end);
}

/// The ranking order of scored rows: ascending score under
/// [`total_cmp_f64`], then ascending row.
fn by_score_then_index(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0))
}

/// Reduces `scored` (distinct rows) to the set that sorting it by
/// [`by_score_then_index`] and calling [`truncate_with_ties`] would keep:
/// the `limit` first plus every row tied with the boundary score. The
/// survivors come back in no particular order, for a selection in `O(n)`
/// in place of the `O(n log n)` sort.
fn select_with_ties(scored: &mut Vec<(usize, f64)>, limit: usize) {
    if limit == 0 {
        scored.clear();
        return;
    }
    if scored.len() <= limit {
        return;
    }
    let (_, nth, _) = scored.select_nth_unstable_by(limit - 1, by_score_then_index);
    let boundary = nth.1;
    // Everything past the boundary ranks after it; its score ties gather
    // right behind it.
    let mut end = limit;
    for j in limit..scored.len() {
        if total_cmp_f64(&scored[j].1, &boundary).is_eq() {
            scored.swap(end, j);
            end += 1;
        }
    }
    scored.truncate(end);
}

/// Two-stage ANN index: banded hyperplane LSH over a truncated
/// projection, exact full-dimension rerank of the candidate budget.
#[derive(Debug, Clone)]
pub struct AnnIndex {
    /// The prefilter projection and the full-dimension rows it projected,
    /// for the exact rerank; `None` hashes the full rows themselves, and
    /// then the LSH's data serves the rerank too, one copy of the rows.
    projected: Option<(TruncatedProjection, Matrix)>,
    /// The LSH over the projected rows (the full rows without a
    /// projection); its data is the prefilter's space, and its stored
    /// bands and rows serve the self-queries.
    lsh: HyperplaneLsh,
    config: AnnConfig,
}

impl AnnIndex {
    /// Builds the index over the rows of `data`.
    ///
    /// The projection fit degrades gracefully (coordinate truncation) on
    /// non-finite or rank-deficient data, so poisoned catalogs index
    /// deterministically instead of aborting (DESIGN.md §10).
    pub fn build(data: Matrix, config: AnnConfig) -> Self {
        config.validate();
        let band_bits = config.resolve_band_bits(data.rows());
        let (hashed, projected) =
            if config.prefilter_dims > 0 && config.prefilter_dims < data.cols() {
                let projection = TruncatedProjection::fit(&data, config.prefilter_dims);
                (projection.project_rows(&data), Some((projection, data)))
            } else {
                (data, None)
            };
        let lsh = HyperplaneLsh::build(hashed, config.tables, band_bits, config.seed ^ 0x5EED);
        Self {
            projected,
            lsh,
            config,
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data().rows()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full-dimension vectors the index holds.
    pub fn data(&self) -> &Matrix {
        match &self.projected {
            Some((_, full)) => full,
            None => self.lsh.data(),
        }
    }

    /// True when the prefilter runs on PCA components (vs coordinate
    /// truncation or no projection at all).
    pub fn prefilter_is_pca(&self) -> bool {
        self.projected
            .as_ref()
            .is_some_and(|(p, _)| !p.is_coordinate())
    }

    /// Top-`k` rows by exact distance among rows passing `keep`, ties at
    /// the boundary included.
    ///
    /// Retrieval: project the query, gather banded candidates (widening
    /// sparse probes), drop filtered rows — falling back to an exact scan
    /// of the kept rows when fewer than `k` survive — prefilter down to
    /// the candidate budget by projected distance, then rerank the
    /// survivors by full-dimension distance.
    pub fn search_filtered(
        &self,
        query: &[f64],
        k: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        assert_eq!(
            query.len(),
            self.data().cols(),
            "query dimensionality mismatch"
        );
        let projected_query = self.projected.as_ref().map(|(p, _)| p.project(query));
        let hash_query: &[f64] = projected_query.as_deref().unwrap_or(query);
        self.search_hashed(query, hash_query, &self.lsh.hash(hash_query), k, keep)
    }

    /// [`Self::search_filtered`] for indexed row `row` as the query, from
    /// what the build already holds: its projected vector is row `row` of
    /// the hashing space and its bands are the stored ones. Both are bit
    /// for bit what projecting and hashing the row again gives, so the
    /// hits are too.
    fn search_row(&self, row: usize, k: usize, keep: impl Fn(usize) -> bool) -> Vec<(usize, f64)> {
        self.search_hashed(
            self.data().row(row),
            self.lsh.data().row(row),
            self.lsh.row_bands(row),
            k,
            keep,
        )
    }

    /// The retrieval behind both searches, given the query in full
    /// dimension, in the hashing space and as band values.
    ///
    /// Neither cut sorts: each selects its survivors ([`select_with_ties`])
    /// and only the final `k`-plus-ties list is sorted.
    fn search_hashed(
        &self,
        query: &[f64],
        hash_query: &[f64],
        bands: &[u64],
        k: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let budget = self.config.budget();
        let mut kept = self.lsh.banded_candidates(bands, budget);
        kept.retain(|&i| keep(i));
        if kept.len() < k {
            kept = (0..self.len()).filter(|&i| keep(i)).collect();
        }
        if kept.len() > budget {
            let mut scored = sq_euclidean_rows(hash_query, self.lsh.data(), &kept);
            select_with_ties(&mut scored, budget);
            kept = scored.into_iter().map(|(i, _)| i).collect();
        }
        let mut reranked = sq_euclidean_rows(query, self.data(), &kept);
        select_with_ties(&mut reranked, k);
        reranked.sort_unstable_by(by_score_then_index);
        reranked
    }

    /// Unfiltered top-`k` search (ties at the boundary included).
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.search_filtered(query, k, |_| true)
    }
}

/// One index over the concatenated rows of every non-empty element set,
/// with maps back to element ids and schemas.
struct GlobalIndex {
    index: AnnIndex,
    ids: Vec<ElementId>,
    schema_of: Vec<usize>,
}

impl GlobalIndex {
    /// `None` when fewer than two sets are non-empty (nothing to pair).
    fn build(sets: &[ElementSet], config: AnnConfig) -> Option<Self> {
        let nonempty: Vec<&ElementSet> = sets.iter().filter(|s| !s.is_empty()).collect();
        if nonempty.len() < 2 {
            return None;
        }
        let dim = nonempty[0].signatures.cols();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut ids = Vec::new();
        let mut schema_of = Vec::new();
        for set in &nonempty {
            assert_eq!(
                set.signatures.cols(),
                dim,
                "element sets must share signature dimensionality"
            );
            for (r, &id) in set.ids.iter().enumerate() {
                rows.push(set.signatures.row(r).to_vec());
                ids.push(id);
                schema_of.push(set.schema);
            }
        }
        // Free the row copies before the index build allocates.
        let data = Matrix::from_rows(&rows);
        drop(rows);
        Some(Self {
            index: AnnIndex::build(data, config),
            ids,
            schema_of,
        })
    }
}

/// The sequence both ANN matchers share: concatenate `sets`, build one
/// global index, and run every row's cross-schema top-`k` query on
/// `exec`. `emit` maps one query's hits to output items; the result
/// holds one list per query in row order, so it is the same under every
/// policy.
///
/// `Matcher::match_pairs` is infallible, so a query that panicked inside
/// the pool re-panics here with the worker's detail.
fn query_cross_schema<T, F>(
    sets: &[ElementSet],
    config: AnnConfig,
    exec: &ExecPolicy,
    emit: F,
) -> Vec<Vec<T>>
where
    T: Send + 'static,
    F: Fn(&GlobalIndex, usize, Vec<(usize, f64)>) -> Vec<T> + Send + Sync + 'static,
{
    let Some(global) = GlobalIndex::build(sets, config) else {
        return Vec::new();
    };
    let global = Arc::new(global);
    let queries = global.index.len();
    let k = config.k;
    let per_query = exec.run_slots(queries, move |qi| {
        let qs = global.schema_of[qi];
        let hits = global
            .index
            .search_row(qi, k, |i| global.schema_of[i] != qs);
        emit(&global, qi, hits)
    });
    per_query.unwrap_or_else(|e| panic!("{e}"))
}

/// Sublinear ANN matcher: one global two-stage index, cross-schema
/// top-`k` retrieval per element.
#[derive(Debug, Clone)]
pub struct AnnMatcher {
    config: AnnConfig,
    exec: ExecPolicy,
}

impl AnnMatcher {
    /// Default configuration retrieving `k` neighbors per query.
    pub fn new(k: usize) -> Self {
        Self::with_config(AnnConfig::with_k(k))
    }

    /// Fully explicit configuration.
    pub fn with_config(config: AnnConfig) -> Self {
        config.validate();
        Self {
            config,
            exec: ExecPolicy::Global,
        }
    }

    /// Runs the query fan-out under `exec` instead of the global pool.
    /// Never affects results, only wall time.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &AnnConfig {
        &self.config
    }

    /// Cross-schema candidate pairs scored by exact squared distance
    /// (ascending — best first), deduplicated to each pair's best score.
    ///
    /// This is the ranking the RRF fusion consumes ([`crate::fuse`]);
    /// [`Matcher::match_pairs`] is the same list with scores dropped.
    pub fn ranked_pairs(&self, sets: &[ElementSet]) -> Vec<(CandidatePair, f64)> {
        let per_query = query_cross_schema(sets, self.config, &self.exec, |g, qi, hits| {
            hits.into_iter()
                .map(|(i, d)| (CandidatePair::new(g.ids[qi], g.ids[i]), d))
                .collect()
        });
        best_per_pair(per_query.into_iter().flatten().collect())
    }
}

/// Each pair of `hits` once, at its best (lowest) score, ranked by
/// `(score, pair)`. A stable sort by `(pair, score)` puts each pair's
/// minimum first in its run, the earliest hit among equal scores.
fn best_per_pair(mut hits: Vec<(CandidatePair, f64)>) -> Vec<(CandidatePair, f64)> {
    hits.sort_by(|a, b| a.0.cmp(&b.0).then(total_cmp_f64(&a.1, &b.1)));
    hits.dedup_by_key(|h| h.0);
    hits.sort_unstable_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
    hits
}

impl Matcher for AnnMatcher {
    fn name(&self) -> String {
        format!("ANN({})", self.config.k)
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        let per_query = query_cross_schema(sets, self.config, &self.exec, |g, qi, hits| {
            hits.into_iter()
                .map(|(i, _)| CandidatePair::new(g.ids[qi], g.ids[i]))
                .collect()
        });
        dedup_pairs(per_query.into_iter().flatten().collect())
    }
}

/// ANN-accelerated SIM: cosine threshold applied to ANN candidates only
/// — the sublinear stand-in for [`crate::SimMatcher`]'s exhaustive
/// cross product, F1-gated against it on the scaling-quality grid.
#[derive(Debug, Clone, Copy)]
pub struct AnnSimMatcher {
    config: AnnConfig,
    threshold: f64,
}

impl AnnSimMatcher {
    /// Threshold in `[0, 1]` over cosine similarity of full signatures.
    pub fn new(config: AnnConfig, threshold: f64) -> Self {
        config.validate();
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must lie in [0, 1]"
        );
        Self { config, threshold }
    }

    /// The active ANN configuration.
    pub fn config(&self) -> &AnnConfig {
        &self.config
    }

    /// The cosine threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Matcher for AnnSimMatcher {
    fn name(&self) -> String {
        format!("ANN-SIM({})", self.threshold)
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        let threshold = self.threshold;
        let per_query = query_cross_schema(
            sets,
            self.config,
            &ExecPolicy::Global,
            move |g, qi, hits| {
                let data = g.index.data();
                hits.into_iter()
                    .filter(|&(i, _)| cosine(data.row(qi), data.row(i)) >= threshold)
                    .map(|(i, _)| CandidatePair::new(g.ids[qi], g.ids[i]))
                    .collect()
            },
        );
        dedup_pairs(per_query.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, SimMatcher};
    use cs_linalg::Xoshiro256;
    use cs_schema::ElementId;
    use std::collections::BTreeMap;

    fn random_sets(schemas: usize, per: usize, dim: usize, seed: u64) -> Vec<ElementSet> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..schemas)
            .map(|s| ElementSet::full(s, Matrix::from_fn(per, dim, |_, _| rng.next_gaussian())))
            .collect()
    }

    #[test]
    fn index_recall_against_flat_is_high() {
        let mut rng = Xoshiro256::seed_from(13);
        let data = Matrix::from_fn(300, 32, |_, _| rng.next_gaussian());
        let exact = FlatIndex::build(data.clone());
        let index = AnnIndex::build(data.clone(), AnnConfig::with_k(10));
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in 0..40 {
            let query = data.row(q).to_vec();
            let truth: std::collections::BTreeSet<usize> = exact
                .search(&query, 10)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let approx: std::collections::BTreeSet<usize> = index
                .search(&query, 10)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            hits += truth.intersection(&approx).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "two-stage recall too low: {recall}");
    }

    #[test]
    fn full_budget_pca_prefilter_returns_flat_top_k() {
        // Differential oracle: with a candidate budget covering every
        // row, the LSH stage hands the rerank every row, so the PCA
        // prefilter's basis can never cost exactness — the index must
        // return exactly the flat top-k, with the rows tied at its
        // boundary. The shapes fit the prefilter on both Gram sides
        // (rows ≤ dim and rows > dim), 300 rows puts a rows-side fit
        // above the old 160-row solver threshold, and the last catalog
        // holds every row twice, so distances tie.
        let shapes = [
            (40, 24, 31, false),
            (150, 64, 32, false),
            (60, 768, 33, false),
            (300, 768, 34, false),
            (200, 64, 35, false),
            (80, 32, 36, true),
        ];
        for (rows, dim, seed, duplicated) in shapes {
            let mut rng = Xoshiro256::seed_from(seed);
            let distinct = if duplicated { rows / 2 } else { rows };
            let base = Matrix::from_fn(distinct, dim, |_, _| rng.next_gaussian());
            let data = if duplicated { base.vstack(&base) } else { base };
            let config = AnnConfig {
                candidate_budget: rows,
                ..AnnConfig::with_k(10)
            };
            let index = AnnIndex::build(data.clone(), config);
            assert!(index.prefilter_is_pca(), "{rows}x{dim}");
            let exact = FlatIndex::build(data.clone());
            let fresh: Vec<Vec<f64>> = (0..10)
                .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
                .collect();
            let queries = data.rows_iter().map(|r| r.to_vec()).chain(fresh);
            for (q, query) in queries.enumerate() {
                let mut ranking = exact.search(&query, rows);
                ranking.sort_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
                for k in [1, 10] {
                    let mut expected = ranking.clone();
                    truncate_with_ties(&mut expected, k);
                    let bits = |hits: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                        hits.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(index.search(&query, k)),
                        bits(expected),
                        "{rows}x{dim} query {q} k {k}"
                    );
                }
            }
        }
    }

    /// `(row, score bits)` sorted by `(score, row)`: a scored list as a
    /// set, with scores compared bit for bit.
    fn as_set(mut scored: Vec<(usize, f64)>) -> Vec<(usize, u64)> {
        scored.sort_by(by_score_then_index);
        scored.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
    }

    #[test]
    fn selection_keeps_the_set_that_sort_and_truncate_keep() {
        // Few distinct scores, so ties are everywhere; NaN, ±inf and both
        // zeros among them (`-0.0` ranks before `+0.0`, NaNs tie).
        let pool = [
            f64::NAN,
            -0.0,
            0.0,
            1.0,
            1.0,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = Xoshiro256::seed_from(29);
        for trial in 0..400 {
            let len = trial % 37;
            let mut rows: Vec<usize> = (0..len * 3).step_by(3).collect();
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.next_below(i + 1));
            }
            let scored: Vec<(usize, f64)> = rows
                .into_iter()
                .map(|i| (i, pool[rng.next_below(pool.len())]))
                .collect();
            for limit in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 3] {
                let mut want = scored.clone();
                want.sort_by(by_score_then_index);
                truncate_with_ties(&mut want, limit);
                let mut got = scored.clone();
                select_with_ties(&mut got, limit);
                assert_eq!(as_set(got), as_set(want), "trial {trial} limit {limit}");
            }
        }
    }

    #[test]
    fn self_queries_match_search_filtered_bit_for_bit() {
        // `search_row` reuses the build's projected rows and bands; it must
        // return what projecting and hashing the row again returns, under a
        // PCA prefilter, the NaN coordinate fallback and no projection, with
        // a budget small enough that the prefilter cut runs.
        let mut rng = Xoshiro256::seed_from(31);
        let base = Matrix::from_fn(90, 24, |_, _| rng.next_gaussian());
        let mut poisoned = base.clone();
        poisoned.row_mut(6)[2] = f64::NAN;
        let duplicated = base.vstack(&base);
        let cases = [
            (&base, 6, true),
            (&poisoned, 6, false),
            (&base, 0, false),
            (&duplicated, 6, true),
        ];
        for (case, &(data, prefilter_dims, pca)) in cases.iter().enumerate() {
            let config = AnnConfig {
                candidate_budget: 12,
                prefilter_dims,
                tables: 3,
                ..AnnConfig::with_k(4)
            };
            let index = AnnIndex::build(data.clone(), config);
            assert_eq!(index.prefilter_is_pca(), pca, "case {case}");
            for q in 0..data.rows() {
                for k in [1, 4, 30] {
                    let keep = |i: usize| i % 3 != q % 3;
                    let bits = |hits: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                        hits.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(index.search_row(q, k, keep)),
                        bits(index.search_filtered(data.row(q), k, keep)),
                        "case {case} row {q} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_per_pair_matches_a_btreemap_reference() {
        // Every pair repeats with different scores, NaN and both zeros
        // included; the reference keeps the first strict minimum seen.
        let ids: Vec<ElementId> = (0..12).map(|e| ElementId::new(e % 3, e)).collect();
        let scores = [3.0, 1.0, f64::NAN, -0.0, 0.0, 1.0, 2.0, f64::INFINITY];
        let mut rng = Xoshiro256::seed_from(37);
        let mut hits = Vec::new();
        for _ in 0..400 {
            let (a, b) = (rng.next_below(12), rng.next_below(12));
            if ids[a].schema != ids[b].schema {
                let pair = CandidatePair::new(ids[a], ids[b]);
                hits.push((pair, scores[rng.next_below(scores.len())]));
            }
        }
        let mut best: BTreeMap<CandidatePair, f64> = BTreeMap::new();
        for &(pair, d) in &hits {
            best.entry(pair)
                .and_modify(|cur| {
                    if total_cmp_f64(&d, cur).is_lt() {
                        *cur = d;
                    }
                })
                .or_insert(d);
        }
        let mut want: Vec<(CandidatePair, f64)> = best.into_iter().collect();
        want.sort_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
        let bits = |list: Vec<(CandidatePair, f64)>| -> Vec<(CandidatePair, u64)> {
            list.into_iter().map(|(p, d)| (p, d.to_bits())).collect()
        };
        assert!(want.len() < hits.len(), "the hits must repeat pairs");
        assert_eq!(bits(best_per_pair(hits)), bits(want));
    }

    #[test]
    fn rerank_orders_by_full_dimension_distance() {
        // Two vectors identical in the leading (high-variance) dims but
        // separated in the tail: only the full-dim rerank can order them.
        let mut rows = vec![vec![0.0; 8]; 3];
        rows[0] = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9];
        rows[1] = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1];
        rows[2] = vec![-5.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let query = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cfg = AnnConfig {
            prefilter_dims: 2,
            ..AnnConfig::with_k(2)
        };
        let index = AnnIndex::build(Matrix::from_rows(&rows), cfg);
        let hits = index.search(&query, 2);
        assert_eq!(hits[0].0, 1, "closest in full dimension must win");
        assert_eq!(hits[1].0, 0);
    }

    #[test]
    fn matcher_links_near_duplicates_across_schemas() {
        let mut sets = random_sets(2, 20, 16, 3);
        // Make schema 1's row 4 a near-copy of schema 0's row 7.
        let twin: Vec<f64> = sets[0].signatures.row(7).iter().map(|x| x + 1e-6).collect();
        sets[1].signatures.row_mut(4).copy_from_slice(&twin);
        let pairs = AnnMatcher::new(3).match_pairs(&sets);
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(0, 7),
            ElementId::new(1, 4)
        )));
    }

    #[test]
    fn matcher_is_schema_order_invariant() {
        let sets = random_sets(3, 12, 16, 5);
        let permuted = vec![sets[2].clone(), sets[0].clone(), sets[1].clone()];
        let a = AnnMatcher::new(4).match_pairs(&sets);
        let b = AnnMatcher::new(4).match_pairs(&permuted);
        assert_eq!(a, b, "pair set must not depend on schema order");
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        let m = AnnMatcher::new(3);
        assert!(m.match_pairs(&[]).is_empty());
        let one = random_sets(1, 5, 8, 1);
        assert!(m.match_pairs(&one).is_empty());
        let empty = vec![
            ElementSet::full(0, Matrix::zeros(0, 8)),
            ElementSet::full(1, Matrix::zeros(0, 8)),
        ];
        assert!(m.match_pairs(&empty).is_empty());
        // Singleton schemas still pair up.
        let tiny = random_sets(2, 1, 8, 2);
        assert_eq!(m.match_pairs(&tiny).len(), 1);
    }

    #[test]
    fn nan_poisoned_rows_do_not_panic_and_stay_deterministic() {
        let mut sets = random_sets(2, 10, 12, 7);
        sets[0].signatures.row_mut(3).fill(f64::NAN);
        let a = AnnMatcher::new(3).match_pairs(&sets);
        let b = AnnMatcher::new(3).match_pairs(&sets);
        assert_eq!(a, b);
    }

    #[test]
    fn ann_sim_agrees_with_exhaustive_sim_on_small_sets() {
        let sets = random_sets(2, 15, 16, 11);
        // k at set size makes retrieval exhaustive; the pair sets must
        // then be identical.
        let cfg = AnnConfig {
            candidate_budget: 64,
            ..AnnConfig::with_k(15)
        };
        let approx = AnnSimMatcher::new(cfg, 0.2).match_pairs(&sets);
        let exact = SimMatcher::new(0.2).match_pairs(&sets);
        assert_eq!(approx, exact);
    }

    #[test]
    fn names_expose_parameters() {
        assert_eq!(AnnMatcher::new(7).name(), "ANN(7)");
        let sim = AnnSimMatcher::new(AnnConfig::default(), 0.6);
        assert_eq!(sim.name(), "ANN-SIM(0.6)");
        assert!((sim.threshold() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ranked_pairs_sorted_best_first_and_deduped() {
        let sets = random_sets(2, 10, 8, 9);
        let ranked = AnnMatcher::new(4).ranked_pairs(&sets);
        for w in ranked.windows(2) {
            assert!(total_cmp_f64(&w[0].1, &w[1].1).is_le());
        }
        let mut pairs: Vec<CandidatePair> = ranked.iter().map(|&(p, _)| p).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), ranked.len());
    }

    #[test]
    fn auto_band_bits_scale_with_rows() {
        let cfg = AnnConfig::default();
        assert_eq!(cfg.resolve_band_bits(10), 4);
        assert!(cfg.resolve_band_bits(100_000) > cfg.resolve_band_bits(1_000));
        assert!(cfg.resolve_band_bits(usize::MAX / 2) <= 16);
        let fixed = AnnConfig {
            band_bits: 9,
            ..cfg
        };
        assert_eq!(fixed.resolve_band_bits(100_000), 9);
    }

    #[test]
    #[should_panic(expected = "top-k must be at least 1")]
    fn zero_k_panics() {
        AnnMatcher::new(0);
    }

    #[test]
    #[should_panic(expected = "share signature dimensionality")]
    fn mismatched_dims_panic() {
        let sets = vec![
            ElementSet::full(0, Matrix::zeros(2, 4)),
            ElementSet::full(1, Matrix::zeros(2, 5)),
        ];
        AnnMatcher::new(1).match_pairs(&sets);
    }

    /// Every answer of an index without a projection, folded into one
    /// digest: filtered and unfiltered searches for every row and for
    /// fresh queries, duplicate rows and ties included.
    fn no_projection_answers_digest(index: &AnnIndex, data: &Matrix) -> u64 {
        let mut rng = Xoshiro256::seed_from(77);
        let fresh: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..data.cols()).map(|_| rng.next_gaussian()).collect())
            .collect();
        let queries = data.rows_iter().map(<[f64]>::to_vec).chain(fresh);
        let mut h = cs_linalg::Fnv1a::default();
        for (q, query) in queries.enumerate() {
            for k in [1, 5, 40] {
                let filtered = index.search_filtered(&query, k, |i| i % 4 != q % 4);
                for (i, d) in filtered.into_iter().chain(index.search(&query, k)) {
                    h.write(&(i as u64).to_le_bytes());
                    h.write(&d.to_bits().to_le_bytes());
                }
            }
        }
        h.finish()
    }

    #[test]
    fn no_projection_index_holds_one_copy_and_answers_as_before() {
        let mut rng = Xoshiro256::seed_from(53);
        let mut data = Matrix::from_fn(160, 12, |_, _| rng.next_gaussian());
        let twin = data.row(9).to_vec();
        data.row_mut(100).copy_from_slice(&twin);
        let config = AnnConfig {
            prefilter_dims: 0,
            candidate_budget: 16,
            ..AnnConfig::with_k(5)
        };
        let index = AnnIndex::build(data.clone(), config);
        assert!(!index.prefilter_is_pca());
        assert_eq!(index.data(), &data);
        assert!(
            std::ptr::eq(index.data(), index.lsh.data()),
            "the rerank reads the hashed rows"
        );
        // The digest of the two-copy index this one replaced.
        assert_eq!(
            no_projection_answers_digest(&index, &data),
            0xc2f5_7c8e_29fd_eedd
        );
    }
}
