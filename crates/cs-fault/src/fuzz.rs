//! Generator-driven fuzzing: the fault matrix replayed over a knob
//! lattice.
//!
//! The 14-case matrix in [`crate::harness`] pins the failure model on
//! *one* small catalog. This module widens that to a seeded family: a
//! deterministic lattice over the generator knobs (linkable ratio,
//! lexicon overlap, naming noise, subtype depth, size distribution)
//! produces ≥ 20 distinct catalogs, and [`run_fuzz`] replays the full
//! matrix on each under every supplied execution policy. Two digests
//! guard each catalog: the matrix digest (stage lines must be
//! byte-identical across policies — harness invariant) and the dataset
//! codec digest (the generator itself must be byte-deterministic). Both
//! fold into one overall FNV-1a digest that `verify.sh` compares across
//! `CS_THREADS ∈ {1, 2, 8}`; any thread-count-dependent behaviour in the
//! generator, the encoder, or any fault path moves the digest.
//!
//! Everything is index-arithmetic deterministic — no wall clock, no
//! ambient randomness — so a digest mismatch is a real defect, never
//! flake.

use cs_core::pool::ExecPolicy;
use cs_datasets::codec::dataset_digest;
use cs_datasets::synthetic::{try_generate, SizeDistribution, SyntheticConfig};

use crate::harness::run_matrix_on;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The linkable-ratio axis: legacy counts, empty positive class, and two
/// derived fractions.
const RATIOS: [Option<f64>; 4] = [None, Some(0.0), Some(0.45), Some(0.9)];
/// The lexicon-overlap axis. The 40-concept pool keeps even the 0.25
/// point's accessible region (10 common + 10 private) above the largest
/// derived pick count, so every lattice point is valid by construction.
const OVERLAPS: [f64; 3] = [1.0, 0.5, 0.25];

/// The deterministic knob lattice: 24 labeled configs (4 ratios ×
/// 3 overlaps × 2 noise/structure variants), each with its own seed.
/// All points keep `schemas = 3` — the poison recipes target schema
/// indices 1 and 2 — and stay small enough that the full replay fits the
/// verify smoke budget.
pub fn knob_lattice() -> Vec<(String, SyntheticConfig)> {
    let mut lattice = Vec::new();
    for (ri, &ratio) in RATIOS.iter().enumerate() {
        for (oi, &overlap) in OVERLAPS.iter().enumerate() {
            for vi in 0..2 {
                let idx = lattice.len();
                let noise = if vi == 1 { 0.6 } else { 0.0 };
                let subtype_depth = if (ri + oi + vi) % 2 == 1 { 2 } else { 0 };
                let sizes = match (ri + oi) % 3 {
                    0 => SizeDistribution::Fixed,
                    1 => SizeDistribution::Uniform { min: 6, max: 11 },
                    _ => SizeDistribution::Ramp { min: 5, max: 12 },
                };
                let config = SyntheticConfig {
                    schemas: 3,
                    shared_concepts: 40,
                    concepts_per_schema: 6,
                    private_per_schema: 5,
                    table_width: 5,
                    alien_elements: 0,
                    linkable_ratio: ratio,
                    lexicon_overlap: overlap,
                    naming_noise: noise,
                    subtype_depth,
                    sizes,
                    seed: 0xF0_0D + idx as u64,
                };
                let ratio_tag = match ratio {
                    None => "legacy".to_string(),
                    Some(r) => format!("r{:02}", (r * 100.0) as u32),
                };
                let dist_tag = match sizes {
                    SizeDistribution::Fixed => "fix",
                    SizeDistribution::Uniform { .. } => "uni",
                    SizeDistribution::Ramp { .. } => "ramp",
                };
                let label = format!(
                    "lat{idx:02}-{ratio_tag}-o{:02}-n{:02}-d{subtype_depth}-{dist_tag}",
                    (overlap * 100.0) as u32,
                    (noise * 100.0) as u32,
                );
                lattice.push((label, config));
            }
        }
    }
    lattice
}

/// One fuzzed catalog's verdict.
#[derive(Debug, Clone)]
pub struct FuzzCatalog {
    /// Lattice label encoding the knob point.
    pub label: String,
    /// Fault-matrix digest (policy-invariant by harness construction).
    pub matrix_digest: u64,
    /// Codec digest of the generated baseline dataset.
    pub dataset_digest: u64,
}

/// The verified result of a full fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Per-catalog verdicts in lattice order.
    pub catalogs: Vec<FuzzCatalog>,
    /// FNV-1a fold of every label and digest — the single value the
    /// verify loop compares across thread counts.
    pub digest: u64,
}

/// Replays the fault matrix over every lattice catalog under every named
/// policy.
///
/// # Errors
/// The first invalid lattice config (a lattice bug), generator
/// nondeterminism, or matrix divergence, with the offending label.
pub fn run_fuzz(execs: &[(&str, ExecPolicy)]) -> Result<FuzzReport, String> {
    run_fuzz_on(&knob_lattice(), execs)
}

fn run_fuzz_on(
    lattice: &[(String, SyntheticConfig)],
    execs: &[(&str, ExecPolicy)],
) -> Result<FuzzReport, String> {
    let mut catalogs = Vec::new();
    let mut digest = FNV_BASIS;
    let fold = |d: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *d ^= u64::from(b);
            *d = d.wrapping_mul(FNV_PRIME);
        }
    };
    for (label, config) in lattice {
        let dataset = try_generate(config)
            .map_err(|e| format!("{label}: lattice produced an invalid config: {e}"))?;
        let ds_digest = dataset_digest(&dataset);
        let replay =
            dataset_digest(&try_generate(config).expect("validated config must regenerate"));
        if replay != ds_digest {
            return Err(format!(
                "{label}: generator is nondeterministic: {ds_digest:016x} vs {replay:016x}"
            ));
        }
        let matrix = run_matrix_on(config, execs).map_err(|e| format!("{label}: {e}"))?;
        fold(&mut digest, label.as_bytes());
        fold(&mut digest, &matrix.digest.to_le_bytes());
        fold(&mut digest, &ds_digest.to_le_bytes());
        catalogs.push(FuzzCatalog {
            label: label.clone(),
            matrix_digest: matrix.digest,
            dataset_digest: ds_digest,
        });
    }
    Ok(FuzzReport { catalogs, digest })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_at_least_twenty_distinct_valid_points() {
        let lattice = knob_lattice();
        assert!(lattice.len() >= 20, "lattice shrank: {}", lattice.len());
        let mut digests = std::collections::BTreeSet::new();
        for (label, config) in &lattice {
            let ds = try_generate(config).unwrap_or_else(|e| panic!("{label}: {e}"));
            digests.insert(dataset_digest(&ds));
        }
        assert_eq!(
            digests.len(),
            lattice.len(),
            "lattice points must generate distinct catalogs"
        );
    }

    #[test]
    fn lattice_varies_every_knob() {
        let lattice = knob_lattice();
        let distinct = |f: &dyn Fn(&SyntheticConfig) -> String| {
            lattice
                .iter()
                .map(|(_, c)| f(c))
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert!(distinct(&|c| format!("{:?}", c.linkable_ratio)) >= 4);
        assert!(distinct(&|c| format!("{}", c.lexicon_overlap)) >= 3);
        assert!(distinct(&|c| format!("{}", c.naming_noise)) >= 2);
        assert!(distinct(&|c| format!("{}", c.subtype_depth)) >= 2);
        assert!(distinct(&|c| format!("{:?}", c.sizes)) >= 3);
    }

    #[test]
    fn fuzz_digest_is_reproducible_across_runs() {
        // A lattice prefix and one policy keep the debug-build runtime
        // sane; the bin and verify.sh cover the full lattice under
        // multiple policies in release.
        let lattice = &knob_lattice()[..3];
        let execs = [("seq", ExecPolicy::Sequential)];
        let a = run_fuzz_on(lattice, &execs).expect("fuzz run a");
        let b = run_fuzz_on(lattice, &execs).expect("fuzz run b");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.catalogs.len(), lattice.len());
    }
}
