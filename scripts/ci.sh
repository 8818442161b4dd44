#!/usr/bin/env bash
# CI gate for the transmob workspace.
#
# Tiers, in order — every invocation runs each tier or prints an
# explicit skip notice for it:
#
#   1. formatting + lints + rustdoc links (-D warnings) + full
#      workspace tests (hard failures; the vendored offline stubs under
#      vendor/ are workspace-excluded) + one run of each threaded
#      example and of the `Sim` example `failure_injection` (they
#      assert their own outcomes; `protocol_comparison`, ~14 s in
#      debug on two cores, is only compiled)
#   2. chaos smoke — seeded fault schedules per protocol (recovery
#      tier: crash/restart link faults; churn tier: permanent broker
#      deaths + overlay self-repair, DESIGN.md §14; cyclic tier: the
#      same churn contract, through the same harness, on a ring overlay
#      with multi-path forwarding, DESIGN.md §15); scales via CHAOS_CASES
#      (e.g. CHAOS_CASES=5000); plus the scenario-script suite on all
#      four drivers, the match index's differential oracle
#      (index_differential), the log-replay equivalence of a broker
#      (replay_equivalence: live batches against one-at-a-time replay)
#      and the Sim's event-queue differential
#      (transmob-sim's queue::tests) at the same case count, the release
#      allocation budgets of a broker step (step_allocations), the schedule explorer on
#      chain(4) under one crash, the TCP churn test 20 times over, and
#      one release run of `figures all` and `figures ablations`;
#      skipped under CI_FAST=1
#   3. bench smoke — every criterion bench, one iteration each
#      (CRITERION_QUICK, see vendor/criterion), so bench code cannot
#      silently rot between perf PRs; captured once and reused by the
#      regression gate, never run twice
#   4. bench-regression gate — scripts/bench_check.sh compares medians
#      against the committed BENCH_routing.json (presence-only check
#      under CI_FAST=1)
#   5. TSAN tier — opt in with TSAN=1: rebuilds the threaded runtimes
#      (each broker is one thread that owns its links; readers, dialers,
#      acceptors and client handles share only the input queues, the
#      client registry and the per-link stat mirrors with it) with
#      -Zsanitizer=thread (nightly) and runs them under
#      ThreadSanitizer; prints a skip notice when not requested or
#      when the toolchain cannot build it
#   6. end-to-end benchmark package — bench_e2e/ is a workspace of its
#      own (BENCHMARK.json runs it from a fresh checkout), so nothing
#      above compiles it: a rename of an item its sources use would
#      break the PR driver's benchmark with every other tier green.
#      Runs its tests and `e2e --smoke` (all seven workloads for a
#      second each, traced and untraced, zero failed operations) in
#      release, as the driver builds it; skipped under CI_FAST=1
set -euo pipefail
cd "$(dirname "$0")/.."

# ---- tier 1: fmt + lints + rustdoc links + tests ----------------------
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
    -p transmob -p transmob-pubsub -p transmob-broker -p transmob-core \
    -p transmob-sim -p transmob-runtime -p transmob-workloads -p transmob-bench
cargo test --workspace -q
for example in quickstart tcp_overlay stream_operator_relocation game_world_migration \
    failure_injection; do
    cargo run -q --example "$example" > /dev/null
done

# ---- tier 2: chaos smoke ----------------------------------------------
if [[ "${CI_FAST:-0}" == "1" ]]; then
    echo "ci: CI_FAST=1 - skipping chaos smoke, the chain(4) explorer and the figure runs"
else
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-sim --test chaos_recovery -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-sim --test chaos_churn -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-sim --test chaos_cyclic -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-runtime --test scripts -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-broker --test index_differential -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-core --test replay_equivalence -q
    CHAOS_CASES="${CHAOS_CASES:-32}" \
        cargo test -p transmob-sim --lib -q queue::
    # The allocation budgets of a broker step in release, the build
    # whose counts CHANGES.md quotes (tier 1 runs the debug budgets).
    cargo test --release -p transmob-sim --test step_allocations -q
    # The schedule explorer's wider alphabet (chain(4), one crash).
    cargo test -p transmob-sim --test explore -q -- --ignored
    # The wall-clock churn test over real sockets, repeated: a detector
    # race shows up as an occasional failure, not a steady one.
    for _ in $(seq 20); do
        cargo test -p transmob-runtime --test tcp_churn -q
    done
    # The other socket suites, repeated for the same reason: each loop
    # owns its endpoints, and readers, dialers and acceptors race to
    # hand it their news.
    for _ in $(seq 10); do
        cargo test -p transmob-runtime --test tcp_recovery -q
        cargo test -p transmob-runtime --test wire_faults -q
        cargo test -p transmob-runtime --lib -q tcp::
    done
    # The figure binary: every figure, and the ablations (conservative
    # and precise covering release, lazy quench, make-before-break) over
    # a full covered workload on the simulator.
    FIG_DIR=$(mktemp -d)
    cargo run --release -q -p transmob-bench --bin figures -- all --out "$FIG_DIR" > /dev/null
    cargo run --release -q -p transmob-bench --bin figures -- ablations --out "$FIG_DIR" > /dev/null
    rm -rf "$FIG_DIR"
fi

# ---- tier 3: bench smoke (single pass, capture reused below) ----------
QUICK_JSON=$(mktemp)
trap 'rm -f "$QUICK_JSON"' EXIT
CRITERION_QUICK=1 CRITERION_JSON="$QUICK_JSON" cargo bench -p transmob-bench -q

# ---- tier 4: bench-regression gate ------------------------------------
BENCH_QUICK_JSON="$QUICK_JSON" scripts/bench_check.sh

# ---- tier 5: TSAN -----------------------------------------------------
# The offline toolchain has no rust-src, so std is not instrumented:
# the build needs -Cunsafe-allow-abi-mismatch=sanitizer, an explicit
# --target (host proc-macros must stay unsanitized), and the libtest
# false-positive suppressions in scripts/tsan.supp.
if [[ "${TSAN:-0}" == "1" ]]; then
    HOST=$(rustc +nightly -vV 2>/dev/null | awk '/^host:/ {print $2}')
    TSAN_RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    if [[ -n "$HOST" ]] && RUSTFLAGS="$TSAN_RUSTFLAGS" CARGO_TARGET_DIR=target/tsan \
        cargo +nightly build -q -p transmob-runtime --target "$HOST" 2>/dev/null; then
        echo "ci: TSAN tier - threaded runtimes under ThreadSanitizer"
        RUSTFLAGS="$TSAN_RUSTFLAGS" CARGO_TARGET_DIR=target/tsan \
            TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp" \
            cargo +nightly test -q -p transmob-runtime --target "$HOST" -- --test-threads=1
    else
        echo "ci: TSAN=1 but this toolchain cannot build -Zsanitizer=thread - skipping TSAN tier"
    fi
else
    echo "ci: TSAN tier skipped (opt in with TSAN=1)"
fi

# ---- tier 6: end-to-end benchmark package -----------------------------
if [[ "${CI_FAST:-0}" == "1" ]]; then
    echo "ci: CI_FAST=1 - skipping the bench_e2e tier (its tests and e2e --smoke)"
else
    cargo test --release --offline --manifest-path bench_e2e/Cargo.toml
    cargo run --release --quiet --offline --manifest-path bench_e2e/Cargo.toml -- --smoke
fi
