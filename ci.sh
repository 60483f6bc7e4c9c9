#!/usr/bin/env sh
# Offline CI for the PIMFlow workspace: formatting, lints, and the full
# test suite. Everything runs against the committed Cargo.lock with no
# network access (the workspace has no external dependencies).
set -eu

cd "$(dirname "$0")"

# The workspace is fully self-contained: every dependency is an in-repo
# crate, so builds and tests must succeed without touching the network.
export CARGO_NET_OFFLINE=true

# `set -e` does not stop on a failing `! cmd`, so checks that a pattern is
# absent go through this.
refute_grep() {
  if grep -q "$1" "$2"; then
    echo "unexpected match for $1 in $2" >&2
    exit 1
  fi
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The suite runs twice — sequential and 4-wide worker pool — to exercise
# the determinism contract: every test (plan bytes, BENCH artifacts,
# JSONL traces) must pass identically at any PIMFLOW_JOBS width.
echo "==> cargo test (PIMFLOW_JOBS=1)"
PIMFLOW_JOBS=1 cargo test -q --workspace --offline

echo "==> cargo test (PIMFLOW_JOBS=4)"
PIMFLOW_JOBS=4 cargo test -q --workspace --offline

# The Newton pricing contract again in the release profile, which the
# benchmark and the figures run: the pricer's fast-forward shifts u64
# timestamps, and only debug builds trap on overflow.
echo "==> cargo test --release --test pricer"
cargo test -q --release --offline --test pricer

# The simulator's own tests in release for the same reason: they
# fast-forward u64::MAX periods and a 10^9-block closed form.
echo "==> cargo test --release -p pimflow-pimsim"
cargo test -q --release --offline -p pimflow-pimsim

# The GEMM tiles and the executor pins in the release profile, which
# perfbench and the figures run: inlining and `target_feature` codegen of
# the tiles (and their prefetches) differ from debug builds.
echo "==> cargo test --release -p pimflow-kernels"
cargo test -q --release --offline -p pimflow-kernels

echo "==> cargo test --release --test exec_parallel"
cargo test -q --release --offline --test exec_parallel

# The engine pins in the release profile: release builds wrap u32 row and
# u64 timestamp arithmetic silently, and the pins are the end-to-end check
# on plan bytes.
echo "==> cargo test --release --test engine_pin"
cargo test -q --release --offline --test engine_pin

# A third pass re-runs the fault-resilience contracts under a non-trivial
# fault seed: the determinism, no-drop, and mask-respecting properties
# must hold for scenarios other than the default 0xFA17.
echo "==> cargo test --test resilience (PIMFLOW_FAULTS=20260806)"
PIMFLOW_FAULTS=20260806 PIMFLOW_JOBS=4 cargo test -q --offline --test resilience

# The executor smoke sweep must show parallel execution byte-identical to
# sequential and not significantly slower than it. The floor verdict is a
# Welch test over eight runs per side: Met, Missed or Unmeasured (not
# significant, or a single-thread host); only Missed fails.
echo "==> figures exec --smoke"
tmpdir="$(mktemp -d)"
PIMFLOW_JOBS=4 cargo run -q --offline -p pimflow-bench --bin figures -- exec "$tmpdir" --smoke
grep -Eq '"speedup_floor_verdict": "(Met|Unmeasured)"' "$tmpdir/BENCH_exec.json"
rm -rf "$tmpdir"

# The cost-cache smoke sweep must show byte-identical warm plans and warm
# searches not significantly slower than cold ones; it exercises the
# figures binary end to end on CI-sized models. The floor verdict is a
# Welch test per model over sixteen alternating cold/warm pairs: Met,
# Missed or Unmeasured (not significant); only Missed fails.
echo "==> figures costcache --smoke"
tmpdir="$(mktemp -d)"
cargo run -q --offline -p pimflow-bench --bin figures -- costcache "$tmpdir" --smoke
grep -Eq '"speedup_floor_verdict": "(Met|Unmeasured)"' "$tmpdir/BENCH_costcache.json"
rm -rf "$tmpdir"

# The serving, fault-resilience and fleet sweeps are pure simulated time,
# so their full runs must reproduce the committed artifacts byte for byte.
# Any change to the serving event loop that moves a number shows up here.
for sweep in serve resilience fleet; do
  echo "==> figures $sweep (byte-identical to BENCH_$sweep.json)"
  tmpdir="$(mktemp -d)"
  PIMFLOW_JOBS=4 cargo run -q --offline --release -p pimflow-bench --bin figures -- "$sweep" "$tmpdir" > /dev/null
  cmp "$tmpdir/BENCH_$sweep.json" "BENCH_$sweep.json"
  rm -rf "$tmpdir"
done

# The paper figures (`figures all`) are pure simulated time and print no
# host timings, so their output must reproduce the committed
# figures_output.txt byte for byte.
echo "==> figures all (byte-identical to figures_output.txt)"
tmpdir="$(mktemp -d)"
cargo run -q --offline --release -p pimflow-bench --bin figures -- all > "$tmpdir/figures_output.txt"
cmp "$tmpdir/figures_output.txt" figures_output.txt
rm -rf "$tmpdir"

# The fleet smoke sweep runs the multi-tenant simulator end to end. All
# three invariants are simulated-time properties (no wall-clock), so they
# must hold unconditionally: no admitted request is dropped on a healthy
# fleet, the SLO-aware router beats round-robin on worst-tenant p99 at
# >=1 swept load point, and seeded node failures lose zero requests.
echo "==> figures fleet --smoke"
tmpdir="$(mktemp -d)"
PIMFLOW_JOBS=4 cargo run -q --offline -p pimflow-bench --bin figures -- fleet "$tmpdir" --smoke
grep -q '"zero_drops_on_healthy_fleet": true' "$tmpdir/BENCH_fleet.json"
grep -q '"slo_router_beats_round_robin": true' "$tmpdir/BENCH_fleet.json"
grep -q '"zero_drops_under_node_faults": true' "$tmpdir/BENCH_fleet.json"
rm -rf "$tmpdir"

# The README fleet example (edge nodes, SLO router, autoscaler, node
# faults, precompile) must write byte-identical events and reports at
# pool widths 1 and 4: precompile fans each class's plans out to its
# nodes in task order, whatever the width.
echo "==> pimflow fleet (byte-identical at --jobs 1 and 4)"
cargo build -q --offline --release -p pimflow-fleet
tmpdir="$(mktemp -d)"
for jobs in 1 4; do
  target/release/pimflow fleet --model mobilenetv2 --nodes 3 \
    --edge-nodes 2 --edge-channels 6 --tenants 4 --rps 8000 \
    --traffic diurnal --router slo --duration 0.5 --seed 42 \
    --autoscale --standby 1 --faults 0.5 --precompile --jobs "$jobs" \
    --events-out "$tmpdir/events-$jobs.jsonl" \
    --report-out "$tmpdir/report-$jobs.json" > /dev/null
done
cmp "$tmpdir/events-1.jsonl" "$tmpdir/events-4.jsonl"
cmp "$tmpdir/report-1.json" "$tmpdir/report-4.json"
rm -rf "$tmpdir"

# The kernel smoke sweep benches the scalar oracle against the
# register-blocked micro-kernel and must pass the numerical tolerance
# gate on every config (the Welch ACCEPT/REJECT verdicts are recorded
# in the artifact but are host-dependent, so CI only asserts accuracy),
# and every instruction set the host runs must give the portable path's
# bits: the AVX2 and AVX-512 GEMM tiles and the AVX2 weight lanes.
echo "==> figures kernels --smoke"
tmpdir="$(mktemp -d)"
cargo run -q --offline -p pimflow-bench --bin figures -- kernels "$tmpdir" --smoke
grep -q '"tolerance_check_passed": true' "$tmpdir/BENCH_kernels.json"
grep -q '"simd_paths_bit_identical": true' "$tmpdir/BENCH_kernels.json"
rm -rf "$tmpdir"

# The fusion smoke sweep searches with fusion off and on: the fused
# space is a strict superset (predicted time never worse, no epsilon),
# the fused plan must strictly cut host<->PIM traffic on at least one
# smoke model (toy's conv chain), and the residual-aware
# walker must keep finding resnet-50's Add-closed towers as fusion
# candidates (whether the search then picks them is priced per model).
echo "==> figures fusion --smoke"
tmpdir="$(mktemp -d)"
cargo run -q --offline -p pimflow-bench --bin figures -- fusion "$tmpdir" --smoke
grep -q '"fused_never_worse": true' "$tmpdir/BENCH_fusion.json"
refute_grep '"resnet_residual_candidates": 0,' "$tmpdir/BENCH_fusion.json"
refute_grep '"models_with_traffic_reduction": 0,' "$tmpdir/BENCH_fusion.json"
refute_grep '"total_traffic_reduction_bytes": 0,' "$tmpdir/BENCH_fusion.json"
rm -rf "$tmpdir"

# The fusion contracts (numerical equivalence on residual fan-out/rejoin
# graphs, width-invariant plans, the superset invariant with overlap
# live, legacy plan JSON) re-run at a 2-wide pool to exercise the
# fusion-role-tagged cost cache under sharded profiling.
echo "==> cargo test --test fusion (PIMFLOW_JOBS=2)"
PIMFLOW_JOBS=2 cargo test -q --offline --test fusion

# The overlap/residual unit contracts (residual-aware group walking,
# overlap-aware epoch timing, the fused-chain min composition over every
# zoo fusion candidate, near-bank re-addressing, fused group stats) and
# the shared node-cost contracts (the GPU-only search predicts the
# engine's timeline on every zoo model) re-run at a 2-wide pool from the
# core crate's own tests.
# A name filter that selects no test still exits 0, so each filtered run
# must also report at least one passed test.
for filter in fusion overlap nodecost; do
  echo "==> cargo test -p pimflow $filter (PIMFLOW_JOBS=2)"
  out="$(PIMFLOW_JOBS=2 cargo test -q --offline -p pimflow "$filter" 2>&1)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed'
done

# Re-run the kernel suite with the scalar oracle forced on: the exact
# path must stay byte-identical at any worker-pool width.
echo "==> cargo test -p pimflow-kernels (PIMFLOW_EXACT_KERNELS=1)"
PIMFLOW_EXACT_KERNELS=1 PIMFLOW_JOBS=2 cargo test -q --offline -p pimflow-kernels

# The executor pins (output bits and counters on five zoo models) must
# also hold when the environment, not an explicit option, selects the
# exact path.
echo "==> cargo test --test exec_parallel (PIMFLOW_EXACT_KERNELS=1)"
PIMFLOW_EXACT_KERNELS=1 PIMFLOW_JOBS=2 cargo test -q --offline --test exec_parallel

# The compile-and-run pins (plan bytes and engine timelines on five zoo
# models under three search variants) re-run at a 2-wide pool: the
# search fans out over the pool, and its plans must not move.
echo "==> cargo test --test engine_pin (PIMFLOW_JOBS=2)"
PIMFLOW_JOBS=2 cargo test -q --offline --test engine_pin

# The benchmark (perfbench/) is a package of its own outside the
# workspace, so nothing above builds it. Test it, then run each workload
# for a second and require a correct result, so a workspace API change
# cannot break the benchmark unseen.
echo "==> perfbench (tests, then every workload for 1 s)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo build -q --offline --release --manifest-path perfbench/Cargo.toml
for workload in compile infer serve fleet; do
  perfbench/target/release/pimflow-perfbench --workload "$workload" \
    --seed 1 --seconds 1 2> /dev/null | tail -n 1 | grep -q '"correct": true'
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CI OK"
