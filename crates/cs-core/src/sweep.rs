//! Efficient evaluation of collaborative scoping over a whole `v` grid.
//!
//! The AUC metrics of the paper (Table 4) integrate performance over the
//! full explained-variance range `v ∈ (1..0)`. Re-running Algorithm 1 + 2
//! per grid point would redo the SVDs dozens of times. This module
//! exploits PCA structure instead: with orthonormal components, the
//! reconstruction error of a signature at `n` retained components is
//!
//! `MSE(n) = (‖x − μ‖² − Σ_{i≤n} z_i²) / dim`
//!
//! where `z = (x − μ)·PCᵀ` is the *full-rank* latent projection. So one
//! projection per `(element, model)` pair — cached as prefix sums — makes
//! every grid point an O(1)-per-element lookup. A property test pins the
//! sweep's decisions to [`CollaborativeScoper::run`]'s.

use std::sync::Arc;

use crate::assess::{assemble, Tally};
use crate::collaborative::CombinationRule;
use crate::error::ScopingError;
use crate::local_model::{check_spectrum, check_trainable};
use crate::outcome::{DegradedSchema, ScopingOutcome};
use crate::pool::ExecPolicy;
use crate::signatures::SchemaSignatures;
use cs_linalg::{Matrix, Pca, PcaConfig};
use cs_schema::ElementId;

/// Cached latent projections of one element set under one model.
#[derive(Debug, Clone)]
struct ProjTable {
    /// Per element: prefix sums of squared latent coordinates
    /// (`prefix[e][n] = Σ_{i<n} z_i²`, with `prefix[e][0] = 0`).
    prefix: Vec<Vec<f64>>,
    /// Per element: squared norm of the centered signature.
    total: Vec<f64>,
}

impl ProjTable {
    fn build(pca: &Pca, data: &Matrix) -> Self {
        let centered = data.sub_row_vector(pca.mean());
        let z = centered.matmul_transposed(pca.components());
        let mut prefix = Vec::with_capacity(data.rows());
        let mut total = Vec::with_capacity(data.rows());
        for (zrow, crow) in z.rows_iter().zip(centered.rows_iter()) {
            let mut p = Vec::with_capacity(zrow.len() + 1);
            let mut acc = 0.0;
            p.push(0.0);
            for &v in zrow {
                acc += v * v;
                p.push(acc);
            }
            prefix.push(p);
            total.push(crow.iter().map(|x| x * x).sum());
        }
        Self { prefix, total }
    }

    /// Reconstruction MSE of element `e` at `n` retained components.
    fn error_at(&self, e: usize, n: usize, dim: usize) -> f64 {
        let p = &self.prefix[e];
        let n = n.min(p.len() - 1);
        (self.total[e] - p[n]).max(0.0) / dim as f64
    }

    fn len(&self) -> usize {
        self.prefix.len()
    }
}

/// The immutable projection cache, shared by every clone of a sweep.
#[derive(Debug)]
struct SweepCache {
    element_ids: Vec<ElementId>,
    dim: usize,
    /// Element count per schema (degraded schemas included — their
    /// elements still occupy rows of the unified order).
    schema_lens: Vec<usize>,
    /// Full explained-variance ratios per schema model (empty for
    /// degraded schemas).
    ratios: Vec<Vec<f64>>,
    /// `own[m]` — schema `m`'s own elements under its own model
    /// (`None` when `m` is degraded).
    own: Vec<Option<ProjTable>>,
    /// `cross[k][m]` — schema `k`'s elements under model `m` (`None` on
    /// the diagonal and wherever `k` or `m` is degraded).
    cross: Vec<Vec<Option<ProjTable>>>,
    /// Schemas no local model could be trained for, in schema order.
    degraded: Vec<DegradedSchema>,
}

/// Prepared state for sweeping `v` over a catalog's signatures.
///
/// The cache is immutable once prepared and held behind an [`Arc`], so
/// `Clone` is a reference-count bump — each worker of
/// [`Self::assess_grid`] carries its own handle to the shared
/// projections.
#[derive(Debug, Clone)]
pub struct CollaborativeSweep {
    inner: Arc<SweepCache>,
}

impl CollaborativeSweep {
    /// Fits full-rank PCA per schema and caches all projections, fanning
    /// the per-schema work out on the shared pool.
    pub fn prepare(signatures: &SchemaSignatures) -> Result<Self, ScopingError> {
        Self::prepare_with(signatures, &ExecPolicy::Global)
    }

    /// [`Self::prepare`] under an explicit execution policy. Both the
    /// PCA fits and the projection tables are per-schema pure
    /// computations assembled in slot order, so every policy produces a
    /// bit-identical cache.
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
        let fits: Vec<Result<Pca, ScopingError>> = exec.run_slots(k, move |m| {
            let data = sigs.schema(m);
            check_trainable(m, data)?;
            let pca = Pca::fit_with(data, PcaConfig::new())?;
            check_spectrum(m, data, &pca)?;
            Ok(pca)
        })?;
        let mut pcas: Vec<Option<Pca>> = Vec::with_capacity(k);
        let mut degraded = Vec::new();
        for (m, fit) in fits.into_iter().enumerate() {
            match fit {
                Ok(pca) => pcas.push(Some(pca)),
                Err(error) => {
                    pcas.push(None);
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
        let ratios = pcas
            .iter()
            .map(|p| {
                p.as_ref()
                    .map(|p| p.explained_variance_ratio().to_vec())
                    .unwrap_or_default()
            })
            .collect();
        // One slot per schema: its own-model table plus its row of
        // cross-model tables. Degraded schemas get no tables at all —
        // their signatures may be non-finite and must never be projected.
        let sigs = signatures.clone();
        let shared_pcas: Arc<Vec<Option<Pca>>> = Arc::new(pcas);
        let per_schema = exec.run_slots(k, move |sk| {
            let own = shared_pcas[sk]
                .as_ref()
                .map(|pca| ProjTable::build(pca, sigs.schema(sk)));
            let cross: Vec<Option<ProjTable>> = (0..k)
                .map(|m| {
                    if m == sk || own.is_none() {
                        return None;
                    }
                    shared_pcas[m]
                        .as_ref()
                        .map(|pca| ProjTable::build(pca, sigs.schema(sk)))
                })
                .collect();
            (own, cross)
        })?;
        let mut own = Vec::with_capacity(k);
        let mut cross = Vec::with_capacity(k);
        for (o, c) in per_schema {
            own.push(o);
            cross.push(c);
        }
        Ok(Self {
            inner: Arc::new(SweepCache {
                element_ids: signatures.element_ids(),
                dim: signatures.dim(),
                schema_lens: (0..k).map(|m| signatures.schema_len(m)).collect(),
                ratios,
                own,
                cross,
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
        self.inner.own.len()
    }

    /// Components each model retains at explained variance `v`
    /// (0 for degraded schemas, which have no model).
    pub fn components_at(&self, v: f64) -> Vec<usize> {
        self.inner
            .ratios
            .iter()
            .map(|r| {
                if r.is_empty() {
                    0
                } else {
                    Pca::components_for_variance(r, v)
                }
            })
            .collect()
    }

    /// Local linkability ranges `l_m` at explained variance `v`
    /// (0.0 for degraded schemas, which accept nothing).
    pub fn ranges_at(&self, v: f64) -> Vec<f64> {
        let comps = self.components_at(v);
        self.inner
            .own
            .iter()
            .zip(comps.iter())
            .map(|(table, &n)| {
                table
                    .as_ref()
                    .map(|t| {
                        (0..t.len())
                            .map(|e| t.error_at(e, n, self.inner.dim))
                            .fold(0.0, f64::max)
                    })
                    .unwrap_or(0.0)
            })
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
        let comps = self.components_at(v);
        let ranges = self.ranges_at(v);
        let tallies = (0..self.schema_count())
            .map(|sk| {
                let n = cache.schema_lens[sk];
                if cache.own[sk].is_none() {
                    return Tally::degraded(n);
                }
                let mut tally = Tally::new(n);
                for (m, table) in cache.cross[sk].iter().enumerate() {
                    if let Some(table) = table {
                        let errors = (0..n).map(|e| table.error_at(e, comps[m], cache.dim));
                        tally.fold(errors, ranges[m]);
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
    /// projections independently, so the output vector (in `vs` order)
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

    #[test]
    fn errors_match_explicit_reconstruction() {
        let sigs = random_sigs(8);
        let sweep = CollaborativeSweep::prepare(&sigs).unwrap();
        // Compare the cached error of schema 1's elements under model 0
        // against the explicit PCA reconstruction at v = 0.6.
        let v = 0.6;
        let n0 = sweep.components_at(v)[0];
        let pca = Pca::fit_with(sigs.schema(0), PcaConfig::new())
            .unwrap()
            .with_components(n0);
        let explicit = pca.reconstruction_errors(sigs.schema(1));
        let table = sweep.inner.cross[1][0].as_ref().unwrap();
        for (e, expected) in explicit.iter().enumerate() {
            let got = table.error_at(e, n0, sigs.dim());
            assert!(
                (got - expected).abs() < 1e-9,
                "elem {e}: {got} vs {expected}"
            );
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
