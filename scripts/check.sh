#!/usr/bin/env bash
# Pre-PR gate: build every preset (release, asan, tsan) and run the tier-1
# suite under each. ~5-15 min depending on core count.
#
# Usage:
#   scripts/check.sh              # all three presets
#   scripts/check.sh asan tsan    # a subset
#
# Labels (see tests/CMakeLists.txt): every test carries `tier1`; the
# fault-injection suites additionally carry `fault`; anything labeled `slow`
# is excluded from this gate. `ctest -L <label>` selects by regex.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

for preset in "${presets[@]}"; do
  echo "==> [${preset}] configure"
  cmake --preset "${preset}" >/dev/null
  echo "==> [${preset}] build"
  cmake --build --preset "${preset}" -j "${jobs}" >/dev/null
  echo "==> [${preset}] ctest -L tier1 -LE slow (complex spectra)"
  ctest --preset "${preset}" -L tier1 -LE slow -j "${jobs}"
  echo "==> [${preset}] ctest -L tier1 -LE slow (HS_USE_REAL_FFT=1)"
  HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L tier1 -LE slow -j "${jobs}"
  # The suite above runs with auto codelet dispatch (the widest tier the CPU
  # supports). Re-run with the scalar reference codelets forced so a
  # vectorization bug can never hide behind the tier that happens to be
  # selected on the build machine. Release only — one extra full pass is
  # enough, and the sanitizer presets already run the dedicated cross-tier
  # bit-identity suite (simd_test).
  if [ "${preset}" = "release" ]; then
    echo "==> [${preset}] ctest -L tier1 -LE slow (HS_KERNEL_DISPATCH=scalar)"
    HS_KERNEL_DISPATCH=scalar ctest --preset "${preset}" -L tier1 -LE slow \
      -j "${jobs}"
  fi
  # Time-domain robustness: deadlines, the stall watchdog rescuing injected
  # hangs, the GPU circuit breaker, and overload shedding. The release run
  # checks behaviour; the tsan run proves the watchdog/hang interplay is
  # data-race free. Serial (-j 1): these tests assert wall-clock bounds.
  if [ "${preset}" = "release" ] || [ "${preset}" = "tsan" ]; then
    echo "==> [${preset}] ctest -L overload (complex spectra)"
    ctest --preset "${preset}" -L overload -j 1
    echo "==> [${preset}] ctest -L overload (HS_USE_REAL_FFT=1)"
    HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L overload -j 1
    # HybridScheduler suite: work stealing, batched dispatch, and the
    # straggler rescue. The release run checks behaviour and the timing
    # budgets; the tsan run proves the claim/steal protocol and the grouped
    # launches are data-race free. Serial (-j 1): the straggler test
    # asserts wall-clock ratios.
    echo "==> [${preset}] ctest -L sched (complex spectra)"
    ctest --preset "${preset}" -L sched -j 1
    echo "==> [${preset}] ctest -L sched (HS_USE_REAL_FFT=1)"
    HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L sched -j 1
    # Multi-tenant serving: shared transform-cache dedup/bit-identity,
    # per-tenant quotas, and weighted-fair admission ordering. The release
    # run checks behaviour; the tsan run proves the shared cache's
    # cross-job handoff and the scheduler's tenant bookkeeping are
    # data-race free. Serial (-j 1): the ordering tests reason about
    # admission sequence under a single worker.
    echo "==> [${preset}] ctest -L tenant (complex spectra)"
    ctest --preset "${preset}" -L tenant -j 1
    echo "==> [${preset}] ctest -L tenant (HS_USE_REAL_FFT=1)"
    HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L tenant -j 1
  fi
  # Crash safety: journal framing/replay/truncation, checkpoint CRC +
  # quarantine sidecar, and the crash-torture harness that cuts the journal
  # at every frame boundary. The release run checks behaviour; the asan run
  # proves replay/truncation and torn-tail handling touch no freed or
  # uninitialized memory.
  if [ "${preset}" = "release" ] || [ "${preset}" = "asan" ]; then
    echo "==> [${preset}] ctest -L crash (complex spectra)"
    ctest --preset "${preset}" -L crash -j "${jobs}"
    echo "==> [${preset}] ctest -L crash (HS_USE_REAL_FFT=1)"
    HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L crash -j "${jobs}"
    # Memory-pressure resilience: the deterministic chaos-soak harness
    # sweeps every fault site (tile reads, device allocs, stream exec,
    # journal writes, checkpoint corruption, spill writes/reads) across
    # schedule positions and demands liveness, bit-identical completed
    # tables, and exact metric conservation; plus spill-frame CRC recovery
    # and the warm-restart zero-forward-FFT contract. The asan run proves
    # the spill tier's frame validation and GC touch no freed or
    # uninitialized memory.
    echo "==> [${preset}] ctest -L chaos (complex spectra)"
    ctest --preset "${preset}" -L chaos -j "${jobs}"
    echo "==> [${preset}] ctest -L chaos (HS_USE_REAL_FFT=1)"
    HS_USE_REAL_FFT=1 ctest --preset "${preset}" -L chaos -j "${jobs}"
  fi
done

# bench_serve exits non-zero if section 4 (metrics overhead: instrumented
# batch >2% slower than timers-off), section 5 (overload: an accepted job
# missed deadline + one watchdog period, a reject took >=10 ms, or the
# shed/deadline counters failed to account for every non-completed job),
# section 6 (journal: fsync=interval adds >3% to the flood workload, or a
# recovery replay failed to resubmit every live job), or section 7 (shared
# cache: the resubmit-heavy workload speeds up < 2x, a shared-cache table
# differs bitwise from the unshared path, or a low-weight tenant's accepted
# jobs miss their deadline under a two-tenant flood) breaks its budget.
# The resubmit numbers land in BENCH_journal.json and are trajectory-gated
# by perf_gate.py against the committed snapshot (refresh deliberately with
# ./build/bench/bench_serve --json-out=BENCH_journal.json). Release only —
# sanitizers distort the timing.
for preset in "${presets[@]}"; do
  if [ "${preset}" = "release" ]; then
    # Section 8 (restart with a persisted spill cache) additionally gates
    # the warm-restart contract: the resubmit through a second service
    # incarnation over the same spill directory must replay with zero
    # forward FFTs at >= 2x the cold wall clock, bit-identically. Its
    # numbers land in BENCH_restart.json (refresh deliberately with
    # ./build/bench/bench_serve --restart-json-out=BENCH_restart.json).
    echo "==> [release] bench_serve metrics/overload/journal/shared-cache/restart budgets (BENCH_journal.json, BENCH_restart.json)"
    ./build/bench/bench_serve --json-out=build/bench/BENCH_journal.json \
      --restart-json-out=build/bench/BENCH_restart.json >/dev/null
    python3 scripts/perf_gate.py BENCH_journal.json \
      build/bench/BENCH_journal.json
    python3 scripts/perf_gate.py BENCH_restart.json \
      build/bench/BENCH_restart.json
    # table2_runtimes exits non-zero if the HybridScheduler section misses
    # its budgets (stealing recovers < 70% of the straggler's idle time, or
    # batched dispatch cuts vgpu enqueues by < 4x). The section's numbers
    # land in build/bench/, so a gate run never overwrites the committed
    # BENCH_sched.json (refresh it deliberately with
    # ./build/bench/table2_runtimes --json-out=BENCH_sched.json).
    echo "==> [release] table2_runtimes scheduler budgets (BENCH_sched.json)"
    ./build/bench/table2_runtimes --json-out=build/bench/BENCH_sched.json \
      >/dev/null
    # Benchmark-trajectory gate for the SIMD codelets: regenerate the FFT
    # and kernel micro-benchmark snapshots and diff them against the
    # committed baselines. bench_fft itself enforces the tentpole >=1.3x
    # dispatch-speedup budget; perf_gate.py then fails on any entry drifting
    # past the tolerance: wall-clock entries get a loose 75% band
    # (HS_PERF_TOLERANCE — trajectory breaks, not machine jitter) while
    # derived speedup ratios get a tight 25% band (HS_PERF_RATIO_TOLERANCE
    # — a tier silently falling back to scalar fails). Refresh a baseline
    # deliberately with:
    #   ./build/bench/bench_fft --json-out=BENCH_fft.json
    echo "==> [release] bench_fft dispatch budget + trajectory (BENCH_fft.json)"
    ./build/bench/bench_fft --json-out=build/bench/BENCH_fft.json >/dev/null
    python3 scripts/perf_gate.py BENCH_fft.json build/bench/BENCH_fft.json
    echo "==> [release] bench_kernels trajectory (BENCH_kernels.json)"
    ./build/bench/bench_kernels --json-out=build/bench/BENCH_kernels.json \
      >/dev/null
    python3 scripts/perf_gate.py BENCH_kernels.json \
      build/bench/BENCH_kernels.json
  fi
done

echo "All presets green: ${presets[*]}"
