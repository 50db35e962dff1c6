//! LSH: nearest-neighbor blocking.
//!
//! [`LshMatcher`] follows the paper's setup exactly: an exact flat-L2
//! index (FAISS `IndexFlatL2`) per schema, searched for the top-`k`
//! similar signatures of every element of every *other* schema, in both
//! directions, with the symmetric union deduplicated.
//!
//! [`HyperplaneLsh`] is a genuine locality-sensitive-hashing index (random
//! hyperplane signatures + multi-table banding) provided as the
//! approximate variant; a test pins its recall against the exact index.
//! Its bucket tables are flat sorted arrays and its candidate union is a
//! bitset, so a lookup neither walks a tree nor sorts (DESIGN.md §14).

use crate::flat::FlatIndex;
use crate::{dedup_pairs, CandidatePair, ElementSet, Matcher};
use cs_linalg::{Matrix, Xoshiro256};

/// Top-k nearest-neighbor matcher over exact flat indexes.
#[derive(Debug, Clone, Copy)]
pub struct LshMatcher {
    k: usize,
}

impl LshMatcher {
    /// Creates a matcher retrieving the top `k ≥ 1` neighbors per query.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "top-k must be at least 1");
        Self { k }
    }

    /// The configured neighbor count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Matcher for LshMatcher {
    fn name(&self) -> String {
        format!("LSH({})", self.k)
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        // One index per schema.
        let indexes: Vec<FlatIndex> = sets
            .iter()
            .map(|s| FlatIndex::build(s.signatures.clone()))
            .collect();
        let mut out = Vec::new();
        for (qi, query_set) in sets.iter().enumerate() {
            for (ti, index) in indexes.iter().enumerate() {
                if qi == ti || index.is_empty() {
                    continue;
                }
                for (row, &qid) in query_set.ids.iter().enumerate() {
                    for (hit, _) in index.search(query_set.signatures.row(row), self.k) {
                        out.push(CandidatePair::new(qid, sets[ti].ids[hit]));
                    }
                }
            }
        }
        dedup_pairs(out)
    }
}

/// Random-hyperplane LSH index with banded multi-table lookup.
///
/// Signatures are hashed to `tables × band_bits` sign bits; candidates
/// share a full band in at least one table. Sparse probes widen
/// deterministically: single-bit-flip neighbor buckets first, then an
/// exact scan, so [`Self::candidates`] never returns fewer than `min`
/// rows while the index holds that many (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    data: Matrix,
    /// One flat bucket table per band.
    tables: Vec<Buckets>,
    /// Each row's band value in every table, `rows × tables` row-major,
    /// kept from the build so an indexed row is never hashed twice.
    bands: Vec<u64>,
    /// Hyperplanes per table, each `band_bits × dim`.
    planes: Vec<Matrix>,
}

/// One table's buckets, flattened: `keys` holds the distinct band values
/// in ascending order, and the rows of bucket `keys[b]` are
/// `rows[offsets[b]..offsets[b + 1]]`, ascending. A lookup is a binary
/// search over `keys`.
#[derive(Debug, Clone)]
struct Buckets {
    keys: Vec<u64>,
    offsets: Vec<usize>,
    rows: Vec<usize>,
}

impl Buckets {
    /// Groups rows `0..n` by `band(row)`; the stable sort keeps each
    /// bucket's rows ascending.
    fn new(n: usize, band: impl Fn(usize) -> u64) -> Self {
        let mut rows: Vec<usize> = (0..n).collect();
        rows.sort_by_key(|&i| band(i));
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (at, &i) in rows.iter().enumerate() {
            let key = band(i);
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(at);
            }
        }
        offsets.push(n);
        // Exact sizes, so the index's footprint follows from its shapes.
        keys.shrink_to_fit();
        offsets.shrink_to_fit();
        Self {
            keys,
            offsets,
            rows,
        }
    }

    /// The rows whose band is `key`, ascending; empty when none is.
    fn get(&self, key: u64) -> &[usize] {
        match self.keys.binary_search(&key) {
            Ok(b) => &self.rows[self.offsets[b]..self.offsets[b + 1]],
            Err(_) => &[],
        }
    }
}

/// A set of row ids as one bit per indexed row, with a running count:
/// the union of bucket lists without a sort or a dedup.
struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    fn new(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(64)],
            len: 0,
        }
    }

    fn insert_all(&mut self, rows: &[usize]) {
        for &r in rows {
            let (word, bit) = (&mut self.words[r / 64], 1u64 << (r % 64));
            self.len += usize::from(*word & bit == 0);
            *word |= bit;
        }
    }

    /// The members, ascending.
    fn into_rows(self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }
}

impl HyperplaneLsh {
    /// Builds an index with `tables` bands of `band_bits` hyperplanes each.
    pub fn build(data: Matrix, tables: usize, band_bits: usize, seed: u64) -> Self {
        assert!(
            tables >= 1 && band_bits >= 1,
            "need at least one table and bit"
        );
        assert!(band_bits <= 63, "band bits must fit a u64");
        let mut rng = Xoshiro256::seed_from(seed);
        let (n, dim) = data.shape();
        let planes: Vec<Matrix> = (0..tables)
            .map(|_| Matrix::from_fn(band_bits, dim, |_, _| rng.next_gaussian()))
            .collect();
        let mut bands = vec![0; n * tables];
        for (t, p) in planes.iter().enumerate() {
            for (i, dots) in data.matmul_transposed(p).rows_iter().enumerate() {
                bands[i * tables + t] = Self::band(dots);
            }
        }
        let buckets = (0..tables)
            .map(|t| Buckets::new(n, |i| bands[i * tables + t]))
            .collect();
        Self {
            data,
            tables: buckets,
            bands,
            planes,
        }
    }

    /// The band value of one vector from its dots with a table's
    /// hyperplanes: bit `b` is set when dot `b` is `≥ 0`.
    fn band(dots: &[f64]) -> u64 {
        dots.iter()
            .enumerate()
            .filter(|&(_, &dot)| dot >= 0.0)
            .fold(0, |h, (bit, _)| h | 1 << bit)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// The vectors the index was built over (the hashing space).
    pub(crate) fn data(&self) -> &Matrix {
        &self.data
    }

    /// The band values of `query`, one per table. For an indexed row these
    /// are [`Self::row_bands`]: each `matvec` cell is the same `dot` as the
    /// build's `matmul_transposed` cell.
    pub(crate) fn hash(&self, query: &[f64]) -> Vec<u64> {
        self.planes
            .iter()
            .map(|planes| Self::band(&planes.matvec(query)))
            .collect()
    }

    /// Indexed row `row`'s band values, one per table, as the build
    /// computed them.
    pub(crate) fn row_bands(&self, row: usize) -> &[u64] {
        let tables = self.tables.len();
        &self.bands[row * tables..(row + 1) * tables]
    }

    /// Candidate rows for `query`, at least `min` of them when the index
    /// holds that many, so never fewer than `min(min, len)`.
    ///
    /// Three deterministic probe stages, each widening only if the
    /// previous one came up short: (1) the query's own band bucket in
    /// every table, (2) every single-bit-flip neighbor bucket of those
    /// bands, (3) an exact scan of all rows. The returned indices are
    /// sorted and deduplicated.
    pub fn candidates(&self, query: &[f64], min: usize) -> Vec<usize> {
        self.banded_candidates(&self.hash(query), min)
    }

    /// [`Self::candidates`] from a query's band values (one per table).
    pub(crate) fn banded_candidates(&self, bands: &[u64], min: usize) -> Vec<usize> {
        let mut set = RowSet::new(self.len());
        for (&h, table) in bands.iter().zip(&self.tables) {
            set.insert_all(table.get(h));
        }
        if set.len >= min {
            return set.into_rows();
        }
        // Widened probe: all Hamming-distance-1 buckets of each band.
        for ((&h, table), planes) in bands.iter().zip(&self.tables).zip(&self.planes) {
            for bit in 0..planes.rows() {
                set.insert_all(table.get(h ^ (1u64 << bit)));
            }
        }
        if set.len >= min {
            return set.into_rows();
        }
        // Exact scan: banding is too sparse for this query.
        (0..self.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_schema::ElementId;
    use std::collections::BTreeMap;

    fn sets() -> Vec<ElementSet> {
        let s0 = Matrix::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]);
        let s1 = Matrix::from_rows(&[vec![0.1, 0.0], vec![4.1, 4.0], vec![10.0, 10.0]]);
        vec![ElementSet::full(0, s0), ElementSet::full(1, s1)]
    }

    #[test]
    fn top_one_links_nearest_neighbors() {
        let pairs = LshMatcher::new(1).match_pairs(&sets());
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(0, 0),
            ElementId::new(1, 0)
        )));
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(0, 1),
            ElementId::new(1, 1)
        )));
        // The far point (1,2) queries back: its nearest in schema 0 is (0,1).
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(1, 2),
            ElementId::new(0, 1)
        )));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn larger_k_is_superset() {
        let s = sets();
        let k1: std::collections::HashSet<_> =
            LshMatcher::new(1).match_pairs(&s).into_iter().collect();
        let k3: std::collections::HashSet<_> =
            LshMatcher::new(3).match_pairs(&s).into_iter().collect();
        assert!(k1.is_subset(&k3));
    }

    #[test]
    fn k_at_index_size_is_cartesian() {
        let s = sets();
        let pairs = LshMatcher::new(3).match_pairs(&s);
        assert_eq!(pairs.len(), 2 * 3);
    }

    #[test]
    fn pairs_are_deduplicated() {
        let pairs = LshMatcher::new(3).match_pairs(&sets());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs.len(), sorted.len());
    }

    #[test]
    fn hyperplane_lsh_finds_near_duplicates() {
        let mut rng = Xoshiro256::seed_from(8);
        let dim = 32;
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        // Make row 1 a slight perturbation of row 0.
        rows[1] = rows[0]
            .iter()
            .map(|x| x + rng.next_gaussian() * 0.01)
            .collect();
        let query = rows[0].clone();
        let lsh = HyperplaneLsh::build(Matrix::from_rows(&rows), 8, 10, 42);
        let hits = lsh.candidates(&query, 2);
        assert!(hits.len() < rows.len(), "own buckets, not an exact scan");
        assert!(hits.contains(&0), "query point itself");
        assert!(hits.contains(&1), "perturbed twin");
    }

    #[test]
    fn hyperplane_recall_against_exact() {
        let mut rng = Xoshiro256::seed_from(9);
        let dim = 16;
        let data = Matrix::from_fn(200, dim, |_, _| rng.next_gaussian());
        let exact = FlatIndex::build(data.clone());
        let lsh = HyperplaneLsh::build(data.clone(), 16, 8, 7);
        let mut recall_hits = 0usize;
        let mut total = 0usize;
        let mut scanned = 0usize;
        for q in 0..20 {
            let query = data.row(q).to_vec();
            let truth: std::collections::HashSet<usize> = exact
                .search(&query, 5)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let approx = lsh.candidates(&query, 5);
            scanned += approx.len();
            recall_hits += truth.iter().filter(|i| approx.contains(i)).count();
            total += truth.len();
        }
        let recall = recall_hits as f64 / total as f64;
        assert!(recall > 0.5, "LSH recall too low: {recall}");
        assert!(scanned < 20 * 200, "banding never narrowed the scan");
    }

    #[test]
    fn sparse_buckets_fall_back_to_full_k() {
        // Regression: with many tables of wide bands over few, widely
        // separated points, the query's own buckets rarely hold `min`
        // rows; the probe must widen (ultimately to an exact scan)
        // instead of silently returning a short list.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let mut v = vec![0.0; 24];
                v[i * 4] = 1000.0 * (i as f64 + 1.0);
                v[i * 4 + 1] = -500.0 * (i as f64 + 1.0);
                v
            })
            .collect();
        let lsh = HyperplaneLsh::build(Matrix::from_rows(&rows), 4, 16, 99);
        for (q, row) in rows.iter().enumerate() {
            let hits = lsh.candidates(row, 4);
            assert!(hits.len() >= 4, "query {q} returned a short list");
            assert!(hits.contains(&q), "query {q} must find itself");
        }
        // `min` beyond the index size returns everything, exactly once.
        assert_eq!(
            lsh.candidates(&rows[0], 100),
            (0..rows.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn candidates_widen_monotonically() {
        let mut rng = Xoshiro256::seed_from(21);
        let data = Matrix::from_fn(64, 8, |_, _| rng.next_gaussian());
        let lsh = HyperplaneLsh::build(data.clone(), 2, 12, 5);
        let q = data.row(7).to_vec();
        let narrow = lsh.candidates(&q, 1);
        let wide = lsh.candidates(&q, 64);
        assert!(narrow.len() <= wide.len());
        assert_eq!(wide.len(), 64, "min at index size must reach every row");
        for w in narrow.windows(2) {
            assert!(w[0] < w[1], "candidates must be sorted/deduped");
        }
    }

    /// The bucket tables the flat ones replaced: one `BTreeMap` per table
    /// from band value to ascending rows, each row hashed by `matvec`.
    fn reference_maps(lsh: &HyperplaneLsh) -> Vec<BTreeMap<u64, Vec<usize>>> {
        lsh.planes
            .iter()
            .map(|p| {
                let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
                for (i, row) in lsh.data.rows_iter().enumerate() {
                    map.entry(HyperplaneLsh::band(&p.matvec(row)))
                        .or_default()
                        .push(i);
                }
                map
            })
            .collect()
    }

    /// The lookup the bitset union replaced: each stage's bucket lists
    /// concatenated, sorted and deduplicated. Returns the candidates and
    /// the stage (1 own buckets, 2 widened, 3 exact scan) that gave them.
    fn reference_candidates(
        lsh: &HyperplaneLsh,
        maps: &[BTreeMap<u64, Vec<usize>>],
        query: &[f64],
        min: usize,
    ) -> (Vec<usize>, u8) {
        let hashes: Vec<u64> = lsh
            .planes
            .iter()
            .map(|p| HyperplaneLsh::band(&p.matvec(query)))
            .collect();
        let mut out: Vec<usize> = Vec::new();
        for (h, map) in hashes.iter().zip(maps) {
            out.extend(map.get(h).into_iter().flatten());
        }
        out.sort_unstable();
        out.dedup();
        if out.len() >= min {
            return (out, 1);
        }
        for ((h, map), p) in hashes.iter().zip(maps).zip(&lsh.planes) {
            for bit in 0..p.rows() {
                out.extend(map.get(&(h ^ (1u64 << bit))).into_iter().flatten());
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.len() >= min {
            return (out, 2);
        }
        ((0..lsh.len()).collect(), 3)
    }

    #[test]
    fn candidates_match_a_btreemap_reference_through_every_stage() {
        let mut rng = Xoshiro256::seed_from(23);
        let mut data = Matrix::from_fn(150, 8, |_, _| rng.next_gaussian());
        // Duplicated rows share every bucket; a zero row sits on every
        // hyperplane (all dots `-0.0`, so all bits set).
        let twin = data.row(3).to_vec();
        data.row_mut(40).copy_from_slice(&twin);
        data.row_mut(41).fill(0.0);
        let fresh: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..8).map(|_| rng.next_gaussian()).collect())
            .collect();
        let mut stages = [0usize; 3];
        for (tables, band_bits) in [(2, 12), (4, 6), (1, 3)] {
            let lsh = HyperplaneLsh::build(data.clone(), tables, band_bits, 17);
            let maps = reference_maps(&lsh);
            for i in 0..data.rows() {
                assert_eq!(lsh.row_bands(i), lsh.hash(data.row(i)), "row {i} bands");
            }
            let queries = data.rows_iter().map(|r| r.to_vec()).chain(fresh.clone());
            for (q, query) in queries.enumerate() {
                for min in [0, 1, 5, 20, 60, 150, 151] {
                    let (want, stage) = reference_candidates(&lsh, &maps, &query, min);
                    stages[usize::from(stage) - 1] += 1;
                    assert_eq!(
                        lsh.candidates(&query, min),
                        want,
                        "{tables}x{band_bits} query {q} min {min}"
                    );
                }
            }
        }
        assert!(stages.iter().all(|&n| n > 0), "stages reached: {stages:?}");
    }

    #[test]
    fn empty_lsh_index() {
        let lsh = HyperplaneLsh::build(Matrix::zeros(0, 4), 2, 4, 1);
        assert!(lsh.is_empty());
        assert!(lsh.candidates(&[0.0; 4], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "top-k must be at least 1")]
    fn zero_k_panics() {
        LshMatcher::new(0);
    }

    #[test]
    #[should_panic(expected = "fit a u64")]
    fn too_many_band_bits_panics() {
        HyperplaneLsh::build(Matrix::zeros(1, 4), 1, 64, 1);
    }
}
