#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# Runs entirely offline — the workspace's hermetic dependency policy
# (DESIGN.md §6) means no registry access is ever needed; if any step
# below tries to reach a registry, that itself is a policy violation.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned digests: the behavioural spec of the encoder, the generator and
# the scoping path. A deliberate change to any of them must update the
# pin here and explain the new value in CHANGES.md.
PIN_FAULT="016f82e041da757b"
PIN_SANITIZER="30172e6b94ab5bdd"
PIN_FUZZ="e3a398cc31f0f7a4"

# pin_check LINE EXPECTED — LINE is "<name> digest: <hex>[ <detail>]".
pin_check() {
  local got="${1#*digest: }"
  if [ "${got%% *}" != "$2" ]; then
    echo "FAIL: $1 differs from the pinned $2" >&2
    echo "  a deliberate change must update the pin in scripts/verify.sh and explain it in CHANGES.md" >&2
    exit 1
  fi
}

echo "==> cargo build --release --offline (warnings deny the gate)"
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

echo "==> cargo clippy --offline (every target, warnings deny the gate)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo run -p cs-lint --offline"
cargo run -q -p cs-lint --release --offline

echo "==> cs-lint --api-check (public-API snapshot gate)"
cargo run -q -p cs-lint --release --offline -- --api-check

echo "==> bench_json --smoke (benchmark emitter + PCA hot-path budget gate)"
cargo run -q -p cs-bench --release --offline --bin bench_json -- --smoke --out target/bench-smoke.json --budget BENCH_BUDGET.json

echo "==> ann_gate (ANN recall@10 >= 0.9 and SIM-F1 parity on the scaling-quality grid)"
cargo run -q -p cs-repro --release --offline --bin ann_gate

echo "==> cs-fault smoke (fault matrix, digest pinned and stable across CS_THREADS)"
digest=""
for threads in 1 2 8; do
  out="$(CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fault_smoke)"
  line="$(printf '%s\n' "$out" | grep '^fault-matrix digest: ')"
  if [ -z "$digest" ]; then
    pin_check "$line" "$PIN_FAULT"
    digest="$line"
    printf '%s (CS_THREADS=%s)\n' "$line" "$threads"
  elif [ "$line" != "$digest" ]; then
    echo "FAIL: fault-matrix digest diverged under CS_THREADS=$threads" >&2
    echo "  expected: $digest" >&2
    echo "  got:      $line" >&2
    exit 1
  fi
done

echo "==> cs-fault smoke under sanitizer (lock-order + float-env digests pinned and stable)"
fault_digest=""
san_digest=""
for threads in 1 2 8; do
  out="$(CS_SANITIZE=1 CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fault_smoke)"
  fline="$(printf '%s\n' "$out" | grep '^fault-matrix digest: ')"
  sline="$(printf '%s\n' "$out" | grep '^sanitizer digest: ')"
  if [ -z "$san_digest" ]; then
    pin_check "$fline" "$PIN_FAULT"
    pin_check "$sline" "$PIN_SANITIZER"
    fault_digest="$fline"
    san_digest="$sline"
    printf '%s (CS_SANITIZE=1 CS_THREADS=%s)\n' "$fline" "$threads"
    printf '%s (CS_SANITIZE=1 CS_THREADS=%s)\n' "$sline" "$threads"
  elif [ "$fline" != "$fault_digest" ] || [ "$sline" != "$san_digest" ]; then
    echo "FAIL: sanitized digests diverged under CS_THREADS=$threads" >&2
    echo "  expected: $fault_digest / $san_digest" >&2
    echo "  got:      $fline / $sline" >&2
    exit 1
  fi
done

echo "==> cs-fault generator fuzz (knob lattice, digest pinned and stable across CS_THREADS)"
fuzz_digest=""
for threads in 1 2 8; do
  out="$(CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fuzz_smoke)"
  line="$(printf '%s\n' "$out" | grep '^generator-fuzz digest: ')"
  if [ -z "$fuzz_digest" ]; then
    pin_check "$line" "$PIN_FUZZ"
    fuzz_digest="$line"
    printf '%s (CS_THREADS=%s)\n' "$line" "$threads"
  elif [ "$line" != "$fuzz_digest" ]; then
    echo "FAIL: generator-fuzz digest diverged under CS_THREADS=$threads" >&2
    echo "  expected: $fuzz_digest" >&2
    echo "  got:      $line" >&2
    exit 1
  fi
done

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

echo "==> cs-linalg, cs-nn, cs-match and cs-core tests in release (the kernel's bit-identity, the prefilter oracle and the run-vs-sweep bit-equality oracles must hold under vectorised codegen)"
cargo test -q --release --offline -p cs-linalg -p cs-nn -p cs-match -p cs-core

echo "==> root property tests in release (ANN ⊆ flat, recall and permutation properties under vectorised codegen)"
cargo test -q --release --offline -p collaborative-scoping --test properties

echo "==> golden CSVs in release (the heavy goldens skip themselves in debug)"
cargo test -q --release --offline -p cs-repro --test golden

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
