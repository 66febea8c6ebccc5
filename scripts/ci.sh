#!/usr/bin/env bash
# The CI gate, runnable locally: formatting, lints, tier-1 build + tests.
#
# Everything runs --offline: all third-party dependencies are vendored
# under vendor/ (see DESIGN.md), so CI needs no network and no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test -q --offline

echo "==> invariant lints: dsv3 lint"
# -p dsv3-core: building the root package alone links dsv3-core as a
# library and can leave target/release/dsv3 stale.
cargo build --release --offline -p dsv3-core
# Strict mode: no --baseline, so every finding (token rules and the
# semantic U2/F2/R2/P3 pass) fails CI unless waived with a reason.
./target/release/dsv3 lint

echo "==> parallel-readiness: every lint:entry fn must be effect-free"
./target/release/dsv3 lint --readiness
if ./target/release/dsv3 lint --readiness | grep -q "NOT READY"; then
  echo "readiness regression: an entry point reaches a forbidden effect" >&2
  exit 1
fi
./target/release/dsv3 lint --rules U2,F2,R2,P3 > /dev/null

echo "==> telemetry smoke: dsv3 serving --trace-out emits a valid Chrome trace"
trace_tmp="$(mktemp /tmp/dsv3_trace.XXXXXX.json)"
chaos_tmp="$(mktemp /tmp/dsv3_chaos.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$chaos_tmp"' EXIT
./target/release/dsv3 serving --trace-out "$trace_tmp" > /dev/null
./target/release/dsv3 check-trace "$trace_tmp"

echo "==> chaos smoke: dsv3 net-chaos --json + --trace-out round-trip"
./target/release/dsv3 net-chaos --json > /dev/null
./target/release/dsv3 net-chaos --trace-out "$chaos_tmp" > /dev/null
./target/release/dsv3 check-trace "$chaos_tmp"

echo "==> memory-timeline smoke: dsv3 mem-timeline --json + --trace-out round-trip"
memtl_tmp="$(mktemp /tmp/dsv3_memtl.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$chaos_tmp" "$memtl_tmp"' EXIT
./target/release/dsv3 mem-timeline --json > /dev/null
./target/release/dsv3 mem-timeline --trace-out "$memtl_tmp" > /dev/null
./target/release/dsv3 check-trace "$memtl_tmp"

echo "==> overload smoke: dsv3 overload --json + --trace-out round-trip"
overload_tmp="$(mktemp /tmp/dsv3_overload.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$chaos_tmp" "$memtl_tmp" "$overload_tmp"' EXIT
./target/release/dsv3 overload --json > /dev/null
./target/release/dsv3 overload --trace-out "$overload_tmp" > /dev/null
./target/release/dsv3 check-trace "$overload_tmp"

echo "==> resilience smoke: dsv3 resilience --json + --trace-out round-trip"
resilience_tmp="$(mktemp /tmp/dsv3_resilience.XXXXXX.json)"
resilience_metrics_tmp="$(mktemp /tmp/dsv3_resilience_metrics.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$chaos_tmp" "$memtl_tmp" "$overload_tmp" "$resilience_tmp" "$resilience_metrics_tmp"' EXIT
./target/release/dsv3 resilience --json > /dev/null
./target/release/dsv3 resilience --trace-out "$resilience_tmp" > /dev/null
./target/release/dsv3 check-trace "$resilience_tmp"
./target/release/dsv3 resilience --metrics-out "$resilience_metrics_tmp" > /dev/null
./target/release/dsv3 check-metrics "$resilience_metrics_tmp"

echo "==> metrics smoke: dsv3 serving --metrics-out emits a valid metrics document"
metrics_tmp="$(mktemp /tmp/dsv3_metrics.XXXXXX.json)"
incidents_tmp="$(mktemp /tmp/dsv3_incidents.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$chaos_tmp" "$memtl_tmp" "$overload_tmp" "$resilience_tmp" "$resilience_metrics_tmp" "$metrics_tmp" "$incidents_tmp"' EXIT
./target/release/dsv3 serving --metrics-out "$metrics_tmp" > /dev/null
./target/release/dsv3 check-metrics "$metrics_tmp"

echo "==> audit smoke: dsv3 audit overload fires the watchdog deterministically"
./target/release/dsv3 audit overload --incidents-out "$incidents_tmp" > /dev/null
grep -q '"detector": "metastability"' "$incidents_tmp"

# Deterministic checks run before the wall-clock gates below, so a gate
# that fails for host-speed reasons cannot hide a correctness failure.
echo "==> benchmark correctness: fp8-train at seeds 17 and 23, deepep at seeds 7 and 8, overload and audit at seeds 20250808 and 1, registry-rest"
# dsv3-bench checks every operation's output against the digests in
# perfbench/golden/: this pins the 30-step training reports at both seeds,
# the Figure 7 DeepEP rounds (exactly `dsv3 fig7 --json` at seed 7) that
# run the incremental max-min solver, the serving engine's overload sweep
# reports (overload) and their traces and incident reports (audit), and
# the registry entries that reach the numerics fast path or the flow
# simulator.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin dsv3-bench
bench_correct() {
  local line
  line="$(perfbench/target/release/dsv3-bench --seconds 2 --trace 0 "$@" 2>/dev/null | tail -n 1)"
  if [[ "$line" != *'"correct":true'* ]]; then
    echo "dsv3-bench $* is not correct: $line" >&2
    exit 1
  fi
}
bench_correct --workload fp8-train --seed 17
bench_correct --workload fp8-train --seed 23
bench_correct --workload deepep --seed 7
bench_correct --workload deepep --seed 8
bench_correct --workload overload --seed 20250808
bench_correct --workload overload --seed 1
bench_correct --workload audit --seed 20250808
bench_correct --workload audit --seed 1
bench_correct --workload registry-rest

echo "==> examples build"
cargo build --release --offline --examples

echo "==> full workspace tests"
cargo test -q --workspace --offline

echo "==> bench gate: watch overhead within budget, no >25% regression"
scripts/bench_gate.sh run watch

echo "==> bench gate: lint scan + parser throughput, no >25% regression"
scripts/bench_gate.sh run lint

echo "==> bench gate: degenerate resilience walk within 1.2x of simulate_goodput"
scripts/bench_gate.sh run resilience

echo "==> bench gate: memory-timeline walker, no >25% regression"
scripts/bench_gate.sh run memtl

echo "==> bench gate: overload sweep, no >25% regression"
scripts/bench_gate.sh run overload

echo "CI green."
