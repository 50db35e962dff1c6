//! Efficient evaluation of collaborative scoping over a whole `v` grid.
//!
//! The AUC metrics of the paper (Table 4) integrate performance over the
//! full explained-variance range `v ∈ (1..0)`. Re-running Algorithm 1 + 2
//! per grid point would redo the SVDs dozens of times. This module
//! exploits PCA structure instead: with orthonormal components, the
//! reconstruction error of a signature at `n` retained components is
//!
//! `MSE(n) = (‖x − μ‖² − Σ_{i<n} z_i²) / dim`
//!
//! where `z = (x − μ)·PCᵀ` is the *full-rank* latent projection. A
//! decision at any `v` depends on `v` only through `n_m(v)`, the
//! components model `m` retains. So `prepare` evaluates every `n` once:
//! per model, the range curve `l_m(n)` (the maximum of its own elements'
//! errors), and per (element, foreign model) one acceptance bit per `n`,
//! `MSE_m(e, n) ≤ l_m(n)`. The floats are then dropped, and every grid
//! point is one bit lookup per (element, foreign model). The errors and
//! `l_m` of [`CollaborativeScoper::run`] are these curves' points, bit for bit.
//!
//! # Cache size
//!
//! For schemas of `n_k` elements and healthy models of full rank
//! `rank_m`, the cache holds
//!
//! - `Σ_k Σ_{m≠k} ⌈n_k·(rank_m + 1)/64⌉` `u64` words of acceptance bits,
//!   both `k` and `m` healthy;
//! - `Σ_m (rank_m + 1)` `f64` of range curves, plus each model's
//!   explained-variance ratios (one `f64` per singular value).
//!
//! [`CollaborativeScoper::run`]: crate::CollaborativeScoper::run

use std::sync::Arc;

use crate::assess::{assemble, Tally};
use crate::collaborative::CombinationRule;
use crate::error::ScopingError;
use crate::local_model::{check_spectrum, check_trainable, for_each_error_curve};
use crate::outcome::{DegradedSchema, ScopingOutcome};
use crate::pool::ExecPolicy;
use crate::signatures::SchemaSignatures;
use cs_linalg::{Matrix, Pca, PcaConfig};
use cs_schema::ElementId;

/// One healthy model's `v`-independent state.
#[derive(Debug, Clone)]
struct ModelCurve {
    /// Full explained-variance ratios.
    ratios: Vec<f64>,
    /// `range[n]` — the local linkability range `l_m` at `n` retained
    /// components, `n = 0..=rank`.
    range: Vec<f64>,
}

impl ModelCurve {
    /// A fitted model's curves: its ratios, and its own elements' error
    /// curves folded into the range curve (the projections are dropped
    /// on return).
    fn fit(pca: &Pca, own: &Matrix) -> Self {
        let mut range = vec![0.0f64; pca.n_components() + 1];
        for_each_error_curve(pca, own, |_, curve| {
            for (l, &err) in range.iter_mut().zip(curve) {
                *l = f64::max(*l, err);
            }
        });
        Self {
            ratios: pca.explained_variance_ratio().to_vec(),
            range,
        }
    }

    /// The range-curve index at `n` retained components (a request past
    /// the full rank keeps every component).
    fn index(&self, n: usize) -> usize {
        n.min(self.range.len() - 1)
    }
}

/// One schema's acceptance bits under one foreign model: bit
/// `e·stride + n` is set when element `e`'s error at `n` retained
/// components lies within the model's range, `stride = rank + 1`.
#[derive(Debug)]
struct AcceptBits {
    words: Vec<u64>,
    stride: usize,
}

impl AcceptBits {
    /// Projects `data` under `pca` and compares each error curve with
    /// `model`'s range curve.
    fn build(pca: &Pca, model: &ModelCurve, data: &Matrix) -> Self {
        let stride = model.range.len();
        let mut words = vec![0u64; (data.rows() * stride).div_ceil(64)];
        for_each_error_curve(pca, data, |e, curve| {
            for (n, (&err, &l)) in curve.iter().zip(&model.range).enumerate() {
                if err <= l {
                    let bit = e * stride + n;
                    words[bit / 64] |= 1 << (bit % 64);
                }
            }
        });
        Self { words, stride }
    }

    /// Whether element `e` is accepted at range-curve index `n`.
    fn get(&self, e: usize, n: usize) -> bool {
        let bit = e * self.stride + n;
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// The immutable acceptance cache, shared by every clone of a sweep.
#[derive(Debug)]
struct SweepCache {
    element_ids: Vec<ElementId>,
    /// Element count per schema (degraded schemas included — their
    /// elements still occupy rows of the unified order).
    schema_lens: Vec<usize>,
    /// `models[m]` — schema `m`'s model curves (`None` when `m` is
    /// degraded).
    models: Vec<Option<ModelCurve>>,
    /// `accept[k][m]` — schema `k`'s elements under model `m` (`None` on
    /// the diagonal and wherever `k` or `m` is degraded).
    accept: Vec<Vec<Option<AcceptBits>>>,
    /// Schemas no local model could be trained for, in schema order.
    degraded: Vec<DegradedSchema>,
}

/// Prepared state for sweeping `v` over a catalog's signatures.
///
/// The cache is immutable once prepared and held behind an [`Arc`], so
/// `Clone` is a reference-count bump — each worker of
/// [`Self::assess_grid`] carries its own handle to the shared bits.
#[derive(Debug, Clone)]
pub struct CollaborativeSweep {
    inner: Arc<SweepCache>,
}

impl CollaborativeSweep {
    /// Fits full-rank PCA per schema and caches every acceptance bit,
    /// fanning the per-schema work out on the shared pool.
    pub fn prepare(signatures: &SchemaSignatures) -> Result<Self, ScopingError> {
        Self::prepare_with(signatures, &ExecPolicy::Global)
    }

    /// [`Self::prepare`] under an explicit execution policy. Both the
    /// PCA fits (with their range curves) and the acceptance bits are
    /// per-schema pure computations assembled in slot order, so every
    /// policy produces a bit-identical cache.
    ///
    /// # Graceful degradation
    ///
    /// A schema whose local model cannot be trained (empty, singleton,
    /// non-finite or zero-variance signatures) does **not** abort the
    /// sweep: it is recorded as a [`DegradedSchema`], excluded as a
    /// foreign assessor, and every outcome prunes its elements
    /// (`decisions = false`). Only when fewer than two schemas remain
    /// healthy does preparation fail — with the first degraded schema's
    /// typed error, since that schema is what made the catalog
    /// unassessable.
    pub fn prepare_with(
        signatures: &SchemaSignatures,
        exec: &ExecPolicy,
    ) -> Result<Self, ScopingError> {
        let k = signatures.schema_count();
        if k < 2 {
            return Err(ScopingError::TooFewSchemas { found: k });
        }
        // Classify every schema with the same guards the strict path
        // (`LocalModel::train`) applies, so both paths agree on what is
        // degenerate.
        let sigs = signatures.clone();
        let fits: Vec<Result<(Pca, ModelCurve), ScopingError>> = exec.run_slots(k, move |m| {
            let data = sigs.schema(m);
            check_trainable(m, data)?;
            let pca = Pca::fit_with(data, PcaConfig::new())?;
            check_spectrum(m, data, &pca)?;
            let curve = ModelCurve::fit(&pca, data);
            Ok((pca, curve))
        })?;
        let mut fitted: Vec<Option<(Pca, ModelCurve)>> = Vec::with_capacity(k);
        let mut degraded = Vec::new();
        for (m, fit) in fits.into_iter().enumerate() {
            match fit {
                Ok(fit) => fitted.push(Some(fit)),
                Err(error) => {
                    fitted.push(None);
                    degraded.push(DegradedSchema { schema: m, error });
                }
            }
        }
        let healthy = k - degraded.len();
        if healthy < 2 {
            // Not enough schemas left to collaborate; surface the first
            // failure as the reason.
            return Err(degraded
                .into_iter()
                .next()
                .map(|d| d.error)
                .unwrap_or(ScopingError::TooFewSchemas { found: k }));
        }
        // One slot per schema: its row of acceptance bitsets. Degraded
        // schemas get none — their signatures may be non-finite and must
        // never be projected.
        let sigs = signatures.clone();
        let fitted = Arc::new(fitted);
        let shared = Arc::clone(&fitted);
        let accept = exec.run_slots(k, move |sk| {
            (0..k)
                .map(|m| match (&shared[sk], &shared[m]) {
                    (Some(_), Some((pca, model))) if m != sk => {
                        Some(AcceptBits::build(pca, model, sigs.schema(sk)))
                    }
                    _ => None,
                })
                .collect()
        })?;
        // Workers may still be dropping their Arc clones for an instant
        // after the last result lands; fall back to a clone in that case.
        // Only the curves outlive `prepare`; the fitted models drop here.
        let models = Arc::try_unwrap(fitted)
            .unwrap_or_else(|shared| (*shared).clone())
            .into_iter()
            .map(|fit| fit.map(|(_, model)| model))
            .collect();
        Ok(Self {
            inner: Arc::new(SweepCache {
                element_ids: signatures.element_ids(),
                schema_lens: (0..k).map(|m| signatures.schema_len(m)).collect(),
                models,
                accept,
                degraded,
            }),
        })
    }

    /// Schemas the sweep skipped (empty for a fully healthy catalog).
    pub fn degraded(&self) -> &[DegradedSchema] {
        &self.inner.degraded
    }

    /// Number of schemas with a trained local model.
    pub fn healthy_count(&self) -> usize {
        self.schema_count() - self.inner.degraded.len()
    }

    /// Number of schemas.
    pub fn schema_count(&self) -> usize {
        self.inner.schema_lens.len()
    }

    /// Components each model retains at explained variance `v`
    /// (0 for degraded schemas, which have no model).
    pub fn components_at(&self, v: f64) -> Vec<usize> {
        self.inner
            .models
            .iter()
            .map(|m| {
                m.as_ref()
                    .map_or(0, |m| Pca::components_for_variance(&m.ratios, v))
            })
            .collect()
    }

    /// Local linkability ranges `l_m` at explained variance `v`
    /// (0.0 for degraded schemas, which accept nothing).
    pub fn ranges_at(&self, v: f64) -> Vec<f64> {
        self.inner
            .models
            .iter()
            .zip(self.components_at(v))
            .map(|(m, n)| m.as_ref().map_or(0.0, |m| m.range[m.index(n)]))
            .collect()
    }

    /// Collaborative assessment at one grid point (equivalent to
    /// [`crate::CollaborativeScoper::run`] at the same `v`).
    ///
    /// # Errors
    /// [`ScopingError::InvalidVariance`] when `v` lies outside `(0, 1]`.
    pub fn assess_at(&self, v: f64) -> Result<ScopingOutcome, ScopingError> {
        self.assess_with_rule(v, CombinationRule::Any)
    }

    /// Assessment with an explicit combination rule.
    ///
    /// # Errors
    /// [`ScopingError::InvalidVariance`] when `v` lies outside `(0, 1]`.
    pub fn assess_with_rule(
        &self,
        v: f64,
        rule: CombinationRule,
    ) -> Result<ScopingOutcome, ScopingError> {
        if !(v.is_finite() && v > 0.0 && v <= 1.0) {
            return Err(ScopingError::InvalidVariance { value: v });
        }
        Ok(self.assess_with_rule_unchecked(v, rule))
    }

    /// The grid-point kernel, for callers that already validated `v`
    /// (the grid path validates once on the caller thread, then fans
    /// out).
    fn assess_with_rule_unchecked(&self, v: f64, rule: CombinationRule) -> ScopingOutcome {
        let cache = &*self.inner;
        // Per model: the range-curve index at `v` (unused when degraded).
        let at: Vec<usize> = cache
            .models
            .iter()
            .zip(self.components_at(v))
            .map(|(m, n)| m.as_ref().map_or(0, |m| m.index(n)))
            .collect();
        let tallies = (0..self.schema_count())
            .map(|sk| {
                let n = cache.schema_lens[sk];
                if cache.models[sk].is_none() {
                    return Tally::degraded(n);
                }
                let mut tally = Tally::votes_only(n);
                for (m, bits) in cache.accept[sk].iter().enumerate() {
                    if let Some(bits) = bits {
                        tally.fold_votes((0..n).map(|e| bits.get(e, at[m])));
                    }
                }
                tally
            })
            .collect();
        // A degraded schema is no assessor: foreign votes are counted out
        // of the healthy models only.
        let foreign = self.healthy_count().saturating_sub(1);
        assemble(
            tallies,
            rule,
            foreign,
            format!("Collaborative[PCA] v={v}"),
            cache.element_ids.clone(),
        )
        .outcome
        .with_degraded(cache.degraded.clone())
    }

    /// Assesses every grid point of `vs`, dealing contiguous `v`-slices
    /// to the shared pool's workers. Each grid point reads the cached
    /// bits independently, so the output vector (in `vs` order)
    /// is bit-identical to calling [`Self::assess_with_rule`] in a loop.
    pub fn assess_grid(
        &self,
        vs: &[f64],
        rule: CombinationRule,
    ) -> Result<Vec<ScopingOutcome>, ScopingError> {
        self.assess_grid_with(vs, rule, &ExecPolicy::Global)
    }

    /// [`Self::assess_grid`] under an explicit execution policy.
    pub fn assess_grid_with(
        &self,
        vs: &[f64],
        rule: CombinationRule,
        exec: &ExecPolicy,
    ) -> Result<Vec<ScopingOutcome>, ScopingError> {
        // Validate up front: a bad grid point should be a typed error on
        // the caller thread, not a worker panic.
        for &v in vs {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(ScopingError::InvalidVariance { value: v });
            }
        }
        let sweep = self.clone();
        let vs: Arc<[f64]> = vs.into();
        Ok(exec.run_slots(vs.len(), move |i| {
            sweep.assess_with_rule_unchecked(vs[i], rule)
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collaborative::CollaborativeScoper;
    use cs_linalg::Xoshiro256;

    fn random_sigs(seed: u64) -> SchemaSignatures {
        let mut rng = Xoshiro256::seed_from(seed);
        let dim = 12;
        // Shared basis + per-schema private directions to create structure.
        let shared: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let mats: Vec<Matrix> = [10usize, 14, 8]
            .iter()
            .map(|&n| {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        let mut row: Vec<f64> =
                            (0..dim).map(|_| rng.next_gaussian() * 0.3).collect();
                        for b in &shared {
                            cs_linalg::vecops::axpy(&mut row, rng.next_gaussian(), b);
                        }
                        row
                    })
                    .collect();
                Matrix::from_rows(&rows)
            })
            .collect();
        SchemaSignatures::from_matrices(mats, vec!["A".into(), "B".into(), "C".into()])
    }

    #[test]
    fn sweep_matches_direct_run_across_grid() {
        let sigs = random_sigs(5);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        for &v in &[0.99, 0.9, 0.75, 0.5, 0.3, 0.1, 0.01] {
            let fast = sweep.assess_at(v).unwrap();
            let slow = CollaborativeScoper::new(v).run(&sigs).unwrap().outcome;
            assert_eq!(fast.decisions, slow.decisions, "divergence at v={v}");
        }
    }

    #[test]
    fn ranges_grow_as_v_shrinks() {
        let sigs = random_sigs(6);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        let strict = sweep.ranges_at(0.95);
        let loose = sweep.ranges_at(0.2);
        for (s, l) in strict.iter().zip(loose.iter()) {
            assert!(l >= s, "range must widen: {s} vs {l}");
        }
    }

    #[test]
    fn components_monotone_in_v() {
        let sigs = random_sigs(7);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        let many = sweep.components_at(0.99);
        let few = sweep.components_at(0.2);
        for (m, f) in many.iter().zip(few.iter()) {
            assert!(m >= f);
        }
    }

    /// Each row's error curve under `pca`, re-derived from the identity
    /// `(‖x − μ‖² − Σ_{i<n} z_i²) / dim` one `dot` at a time.
    fn identity_curves(pca: &Pca, data: &Matrix) -> Vec<Vec<f64>> {
        let dim = data.cols() as f64;
        data.rows_iter()
            .map(|row| {
                let centered: Vec<f64> = row.iter().zip(pca.mean()).map(|(x, m)| x - m).collect();
                let total: f64 = centered.iter().map(|x| x * x).sum();
                let mut prefix = vec![0.0];
                let mut acc = 0.0;
                for pc in pca.components().rows_iter() {
                    let z = cs_linalg::matrix::dot(&centered, pc);
                    acc += z * z;
                    prefix.push(acc);
                }
                prefix.iter().map(|p| (total - p).max(0.0) / dim).collect()
            })
            .collect()
    }

    #[test]
    fn errors_match_explicit_reconstruction() {
        let sigs = random_sigs(8);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        // Schema 1's elements under model 0, against model 0's own range
        // curve.
        let pca = Pca::fit_with(sigs.schema(0), PcaConfig::new()).unwrap();
        let own = identity_curves(&pca, sigs.schema(0));
        let foreign = identity_curves(&pca, sigs.schema(1));
        let model = sweep.inner.models[0].as_ref().unwrap();
        let bits = sweep.inner.accept[1][0].as_ref().unwrap();
        let rank = pca.n_components();
        assert_eq!(model.range.len(), rank + 1);
        for n in 0..=rank {
            let l = own.iter().map(|c| c[n]).fold(0.0, f64::max);
            assert_eq!(model.range[n].to_bits(), l.to_bits(), "l_0({n})");
            for (e, curve) in foreign.iter().enumerate() {
                assert_eq!(bits.get(e, n), curve[n] <= l, "elem {e}, n {n}");
            }
            // The identity agrees with an explicit decode-and-compare.
            if n > 0 {
                let explicit = pca.with_components(n).reconstruction_errors(sigs.schema(1));
                for (e, expected) in explicit.iter().enumerate() {
                    let got = foreign[e][n];
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "elem {e}, n {n}: {got} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn copies_of_own_signatures_are_accepted_at_every_n() {
        // A foreign element equal to one of model 0's own signatures has
        // an error equal to an own error, so within `l_0(n)` at every `n`
        // — the tie `err == l` included.
        let sigs = random_sigs(15);
        let joined = sigs.schema(1).vstack(sigs.schema(0));
        let sweep = CollaborativeSweep::prepare(&with_schema_replaced(&sigs, 1, joined)).unwrap();
        let bits = sweep.inner.accept[1][0].as_ref().unwrap();
        for n in 0..bits.stride {
            for e in sigs.schema_len(1)..sigs.schema_len(1) + sigs.schema_len(0) {
                assert!(bits.get(e, n), "copy {e} rejected at n {n}");
            }
        }
    }

    #[test]
    fn cache_holds_one_bit_per_element_model_and_n() {
        let sigs = random_sigs(13);
        let flat = Matrix::from_rows(&vec![vec![0.5; sigs.dim()]; sigs.schema_len(2)]);
        for (sigs, healthy) in [(sigs.clone(), 3), (with_schema_replaced(&sigs, 2, flat), 2)] {
            let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
            assert_eq!(sweep.healthy_count(), healthy);
            // Full rank of each healthy schema's model, from a fresh fit.
            let ranks: Vec<Option<usize>> = (0..sigs.schema_count())
                .map(|m| {
                    sweep.inner.models[m].as_ref().map(|_| {
                        Pca::fit_with(sigs.schema(m), PcaConfig::new())
                            .unwrap()
                            .n_components()
                    })
                })
                .collect();
            let mut expected = 0;
            for (k, rank_k) in ranks.iter().enumerate() {
                for (m, rank_m) in ranks.iter().enumerate() {
                    if let (Some(_), Some(rank_m), true) = (rank_k, rank_m, m != k) {
                        expected += (sigs.schema_len(k) * (rank_m + 1)).div_ceil(64);
                    }
                }
            }
            let held: usize = sweep
                .inner
                .accept
                .iter()
                .flatten()
                .flatten()
                .map(|b| b.words.len())
                .sum();
            assert_eq!(held, expected);
        }
    }

    /// Every cumulative explained-variance ratio of every model, summed
    /// as `Pca::components_for_variance` sums them (`n_m(v)` steps at
    /// exactly these points), plus `v = 1`, which keeps every component
    /// and leaves each error at round-off.
    fn breakpoints(sweep: &CollaborativeSweep) -> Vec<f64> {
        let mut breakpoints = vec![1.0];
        for model in sweep.inner.models.iter().flatten() {
            let mut cum = 0.0;
            for &r in &model.ratios {
                cum += r;
                if cum > 0.0 && cum <= 1.0 {
                    breakpoints.push(cum);
                }
            }
        }
        breakpoints
    }

    #[test]
    fn trained_models_score_bit_equal_to_the_full_rank_curves() {
        use crate::assess::LocalAssessor;
        use crate::local_model::LocalModel;
        use cs_linalg::pca::ExplainedVariance;

        let sigs = random_sigs(14);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        let k = sigs.schema_count();
        for m in 0..k {
            let full = Pca::fit_with(sigs.schema(m), PcaConfig::new()).unwrap();
            // `curves[sk][e]` — element `e` of schema `sk` under the
            // full-rank model `m`, re-derived one `dot` at a time.
            let curves: Vec<_> = (0..k)
                .map(|sk| identity_curves(&full, sigs.schema(sk)))
                .collect();
            let model_curve = sweep.inner.models[m].as_ref().unwrap();
            for v in breakpoints(&sweep) {
                let model =
                    LocalModel::train(m, sigs.schema(m), ExplainedVariance::new(v).unwrap())
                        .unwrap();
                let n = model_curve.index(sweep.components_at(v)[m]);
                assert_eq!(model.n_components(), n, "m={m}, v={v}");
                assert_eq!(
                    model.linkability_range().to_bits(),
                    model_curve.range[n].to_bits(),
                    "l_{m} at v={v}"
                );
                for (sk, schema_curves) in curves.iter().enumerate() {
                    let errors = model.reconstruction_errors(sigs.schema(sk));
                    for (e, (err, curve)) in errors.iter().zip(schema_curves).enumerate() {
                        assert_eq!(err.to_bits(), curve[n].to_bits(), "m={m}, v={v}, {sk}/{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn breakpoints_match_direct_run_under_every_policy() {
        let sigs = random_sigs(14);
        let breakpoints = breakpoints(&CollaborativeSweep::prepare(&sigs).unwrap());
        assert!(breakpoints.len() >= 20, "{} breakpoints", breakpoints.len());
        let pool = ExecPolicy::Pool(Arc::new(crate::pool::ThreadPool::with_threads(2)));
        for exec in [ExecPolicy::Sequential, pool] {
            let prepared = CollaborativeSweep::prepare_with(&sigs, &exec).unwrap();
            for &v in &breakpoints {
                let direct = CollaborativeScoper::builder()
                    .explained_variance(v)
                    .exec(exec.clone())
                    .build()
                    .unwrap()
                    .run(&sigs)
                    .unwrap();
                assert_eq!(
                    prepared.assess_at(v).unwrap().decisions,
                    direct.outcome.decisions,
                    "v={v}"
                );
            }
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let one = SchemaSignatures::from_matrices(
            vec![Matrix::from_rows(&[vec![1.0, 0.0]])],
            vec!["only".into()],
        );
        assert!(matches!(
            CollaborativeSweep::prepare(&one),
            Err(ScopingError::TooFewSchemas { found: 1 })
        ));
        // One healthy schema + one empty: not enough left to collaborate,
        // so the first degraded schema's typed error surfaces.
        let with_empty = SchemaSignatures::from_matrices(
            vec![
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.2]]),
                Matrix::zeros(0, 2),
            ],
            vec!["a".into(), "b".into()],
        );
        assert!(matches!(
            CollaborativeSweep::prepare(&with_empty),
            Err(ScopingError::EmptySchema { schema: 1 })
        ));
    }

    #[test]
    fn out_of_range_v_is_typed_error() {
        let sigs = random_sigs(9);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        for bad in [0.0, -0.5, 1.0001, f64::NAN, f64::INFINITY] {
            let err = sweep.assess_at(bad).unwrap_err();
            assert!(
                matches!(err, ScopingError::InvalidVariance { .. }),
                "v={bad}: {err:?}"
            );
        }
        // The boundaries of (0, 1] themselves stay valid.
        assert!(sweep.assess_at(1.0).is_ok());
        assert!(sweep.assess_at(1e-9).is_ok());
    }

    /// Replaces schema `target` of `sigs` with `mat`, keeping names.
    fn with_schema_replaced(
        sigs: &SchemaSignatures,
        target: usize,
        mat: Matrix,
    ) -> SchemaSignatures {
        let mats: Vec<Matrix> = (0..sigs.schema_count())
            .map(|m| {
                if m == target {
                    mat.clone()
                } else {
                    sigs.schema(m).clone()
                }
            })
            .collect();
        SchemaSignatures::from_matrices(mats, sigs.schema_names().to_vec())
    }

    #[test]
    fn degraded_schema_is_skipped_not_fatal() {
        let sigs = random_sigs(20);
        let dim = sigs.dim();
        // Schema 1 becomes all-duplicate rows → rank-deficient.
        let flat = Matrix::from_rows(&vec![vec![0.5; dim]; sigs.schema_len(1)]);
        let hostile = with_schema_replaced(&sigs, 1, flat);
        let sweep = CollaborativeSweep::prepare(&hostile).unwrap();
        assert_eq!(sweep.healthy_count(), 2);
        assert_eq!(sweep.degraded().len(), 1);
        assert_eq!(sweep.degraded()[0].schema, 1);
        assert_eq!(
            sweep.degraded()[0].error,
            ScopingError::RankDeficient { schema: 1 }
        );
        let outcome = sweep.assess_at(0.6).unwrap();
        assert!(outcome.is_degraded());
        assert_eq!(outcome.degraded, sweep.degraded().to_vec());
        // Every element of the degraded schema is pruned; the healthy
        // schemas are still assessed normally.
        assert_eq!(outcome.kept_in_schema(1), 0);
        assert_eq!(outcome.len(), hostile.total_len());
        let healthy_only =
            CollaborativeSweep::prepare(&with_schema_replaced(&sigs, 1, sigs.schema(1).clone()))
                .unwrap();
        assert!(!healthy_only.assess_at(0.6).unwrap().is_degraded());
    }

    #[test]
    fn non_finite_schema_degrades_without_poisoning_others() {
        let sigs = random_sigs(21);
        let mut bad = sigs.schema(2).clone();
        bad[(0, 0)] = f64::NAN;
        let hostile = with_schema_replaced(&sigs, 2, bad);
        let sweep = CollaborativeSweep::prepare(&hostile).unwrap();
        assert_eq!(
            sweep.degraded()[0].error,
            ScopingError::NonFiniteSignature {
                schema: 2,
                element: 0
            }
        );
        let outcome = sweep.assess_at(0.5).unwrap();
        // No NaN leaks into decisions: every healthy element got a real
        // verdict and at least one survives on this seed.
        assert_eq!(outcome.kept_in_schema(2), 0);
        assert!(outcome.kept_count() > 0);
    }

    #[test]
    fn degraded_sweep_is_policy_invariant() {
        let sigs = random_sigs(22);
        let flat = Matrix::from_rows(&vec![vec![-1.0; sigs.dim()]; sigs.schema_len(0)]);
        let hostile = with_schema_replaced(&sigs, 0, flat);
        let seq = CollaborativeSweep::prepare_with(&hostile, &ExecPolicy::Sequential).unwrap();
        let par = CollaborativeSweep::prepare_with(
            &hostile,
            &ExecPolicy::Pool(Arc::new(crate::pool::ThreadPool::with_threads(3))),
        )
        .unwrap();
        for &v in &[0.9, 0.5, 0.2] {
            let a = seq.assess_at(v).unwrap();
            let b = par.assess_at(v).unwrap();
            assert_eq!(a, b, "v={v}");
        }
    }

    #[test]
    fn assess_grid_matches_pointwise_loop() {
        let sigs = random_sigs(10);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        let vs = [0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.05];
        let batch = sweep.assess_grid(&vs, CombinationRule::Any).unwrap();
        assert_eq!(batch.len(), vs.len());
        for (outcome, &v) in batch.iter().zip(vs.iter()) {
            assert_eq!(
                outcome.decisions,
                sweep.assess_at(v).unwrap().decisions,
                "v={v}"
            );
        }
    }

    #[test]
    fn assess_grid_rejects_bad_points_as_typed_error() {
        let sigs = random_sigs(11);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            let err = sweep
                .assess_grid(&[0.5, bad], CombinationRule::Any)
                .unwrap_err();
            assert!(matches!(err, ScopingError::InvalidVariance { .. }), "{bad}");
        }
    }

    #[test]
    fn prepare_policies_build_identical_caches() {
        let sigs = random_sigs(12);
        let seq = CollaborativeSweep::prepare_with(&sigs, &ExecPolicy::Sequential).unwrap();
        let par = CollaborativeSweep::prepare(&sigs).unwrap();
        for &v in &[0.9, 0.5, 0.2] {
            assert_eq!(seq.components_at(v), par.components_at(v));
            assert_eq!(seq.ranges_at(v), par.ranges_at(v));
            assert_eq!(
                seq.assess_at(v).unwrap().decisions,
                par.assess_at(v).unwrap().decisions
            );
        }
    }
}
