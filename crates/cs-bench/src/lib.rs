//! # cs-bench
//!
//! Benchmark host crate with one bench surface: the [`emitter`] module
//! and the `bench_json` binary built on it, which measures every
//! benchmark group and writes one machine-readable document.
//! `scripts/verify.sh` exercises it with `--smoke` and gates the hot
//! paths against `BENCH_BUDGET.json` via `--budget`.

pub mod emitter;

/// Standard explained-variance sweep the scoping group assesses, mirroring
/// the paper's `v ∈ (1..0)` grid.
pub fn variance_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least two grid points");
    (0..steps)
        .map(|i| {
            let t = i as f64 / (steps - 1) as f64;
            // from 0.99 down to 0.01
            0.99 - 0.98 * t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_descending_and_bounded() {
        let g = variance_grid(20);
        assert_eq!(g.len(), 20);
        assert!(g.windows(2).all(|w| w[0] > w[1]));
        assert!(g.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    #[should_panic(expected = "two grid points")]
    fn tiny_grid_panics() {
        variance_grid(1);
    }
}
