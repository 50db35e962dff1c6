//! Generator-fuzz smoke driver for `scripts/verify.sh`.
//!
//! Replays the full 14-case fault matrix over every catalog of the
//! deterministic knob lattice (`cs_fault::knob_lattice`, ≥ 20 points
//! varying linkable ratio, lexicon overlap, naming noise, subtype depth,
//! and size distribution) under the sequential path and the global
//! (`CS_THREADS`-sized) pool, then prints one line per catalog and a
//! final digest line:
//!
//! ```text
//! generator-fuzz digest: 0123456789abcdef
//! ```
//!
//! verify.sh runs this binary under several `CS_THREADS` values and
//! compares the digests — the generator, the encoder, and every fault
//! path must be byte-deterministic regardless of worker count. Exits
//! non-zero on any matrix divergence, generator nondeterminism, escaped
//! panic, or invalid lattice point.
//!
//! Two policies (not the five of `fault_smoke`) keep the whole lattice
//! replay inside the < 5 s verify budget; the pinned pool sizes are
//! covered by the `CS_THREADS` loop instead, since the global pool is
//! sized from it.

use cs_core::pool::ExecPolicy;
use cs_fault::run_fuzz;

fn main() {
    // Injected worker panics are expected; keep stderr clean (same hook
    // discipline as fault_smoke).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected fault"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let execs: Vec<(&str, ExecPolicy)> = vec![
        ("sequential", ExecPolicy::Sequential),
        ("global", ExecPolicy::Global),
    ];
    match run_fuzz(&execs) {
        Ok(report) => {
            for cat in &report.catalogs {
                println!(
                    "catalog {} matrix={:016x} dataset={:016x}",
                    cat.label, cat.matrix_digest, cat.dataset_digest
                );
            }
            println!("generator-fuzz digest: {:016x}", report.digest);
        }
        Err(msg) => {
            eprintln!("generator fuzz FAILED: {msg}");
            std::process::exit(1);
        }
    }
}
