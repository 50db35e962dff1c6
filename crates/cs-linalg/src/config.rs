//! The workspace's single entry point for environment knobs.
//!
//! `no-ambient-authority` (DESIGN.md §7) bans `std::env::var` and clock
//! reads in library code: ambient process state reaching a numeric path is
//! exactly how two "identical" runs diverge. Every environment override
//! the workspace honors is therefore declared and read *here* — this
//! module (and the bench crate) are the designated exemptions — and
//! callers receive plain values they can thread through their APIs.
//!
//! Knobs are read at call time, not cached: tests that set and unset
//! variables see their changes, and the cost is one syscall on paths that
//! are never hot.

/// Property-test case-count override honored by [`crate::check::cases`].
pub const PROP_CASES: &str = "CS_PROP_CASES";

/// Worker-count override honored by [`crate::pool::ThreadPool::from_env`].
pub const THREADS: &str = "CS_THREADS";

/// Opt-in flag for the full golden corpus under debug profiles
/// (`crates/cs-repro/tests/golden.rs`).
pub const GOLDEN_FULL: &str = "CS_GOLDEN_FULL";

/// Opt-in flag for the runtime determinism sanitizer
/// ([`crate::sanitize`]): lock-order recording plus the per-worker
/// float-environment probe. The `sanitize` cargo feature forces the same
/// switch at build time.
pub const SANITIZE: &str = "CS_SANITIZE";

/// Raw value of an environment knob, if set and valid UTF-8.
pub fn env_knob(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// True when an environment flag is set at all (any value, even empty).
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process environment is shared across test threads; these tests only
    // touch names no other suite reads.

    #[test]
    fn unset_knobs_are_none() {
        assert_eq!(env_knob("CS_LINT_TEST_UNSET_KNOB"), None);
        assert!(!env_flag("CS_LINT_TEST_UNSET_KNOB"));
    }

    #[test]
    fn set_knobs_round_trip() {
        std::env::set_var("CS_LINT_TEST_SET_KNOB", " 42 ");
        assert_eq!(env_knob("CS_LINT_TEST_SET_KNOB").as_deref(), Some(" 42 "));
        assert!(env_flag("CS_LINT_TEST_SET_KNOB"));
        std::env::remove_var("CS_LINT_TEST_SET_KNOB");
    }
}
