// Runtime SIMD tier detection and dispatch control.
//
// The paper hand-vectorized its NCC and max-reduction kernels with SSE
// intrinsics because the compiler "was not generating such code"; this
// module generalizes that to a small codelet system: every vectorized hot
// path (FFT butterflies, transpose, NCC, reductions, pixel widening) ships
// a scalar reference plus SSE2 and AVX2 variants, and the variant actually
// executed is chosen at run/plan time from the CPU's capabilities.
//
// Selection order (widest wins, forcing caps it):
//   1. CPUID detection (detected_tier) — AVX2 on most x86-64 since 2013,
//      SSE2 is the x86-64 baseline, scalar everywhere else.
//   2. The HS_KERNEL_DISPATCH environment variable
//      ("scalar" | "sse2" | "avx2" | "auto"), read once at first use.
//   3. set_forced_tier(), the programmatic override behind the
//      --kernel-dispatch CLI flag and ScopedKernelDispatch. The tier is
//      process-wide: a stitch job has no tier of its own.
//
// A forced tier wider than the CPU supports is clamped to detected_tier():
// forcing can only narrow, never fault. Every variant is bit-identical to
// its scalar reference (identical per-element operation sequences, no FMA
// contraction), so the tier changes wall-clock time and nothing else —
// displacement tables are unchanged across tiers.
#pragma once

#include <optional>
#include <string>

namespace hs::common {

/// Instruction-set tiers, narrowest to widest. Values are stable (they are
/// serialized into wisdom files and metric gauges).
enum class SimdTier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Dispatch request: a concrete tier, or kAuto = widest supported.
/// Stable integer values: kAuto = -1, otherwise matches SimdTier.
enum class KernelDispatch : int {
  kAuto = -1,
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Widest tier this CPU can execute (CPUID; cached after the first call).
SimdTier detected_tier();

/// The tier dispatch sites must use right now: the forced tier (CLI/env)
/// clamped to detected_tier(), or detected_tier() when nothing is forced.
SimdTier active_tier();

/// Programmatic override (CLI flag / tests). kAuto restores env-or-detected
/// behavior. Process-global; concurrent stitches share it.
void set_forced_tier(KernelDispatch dispatch);

/// The current forced setting (kAuto when nothing is forced beyond the
/// HS_KERNEL_DISPATCH environment variable, which is folded in).
KernelDispatch forced_tier();

/// "scalar" | "sse2" | "avx2".
const char* tier_name(SimdTier tier);

/// "auto" | "scalar" | "sse2" | "avx2".
const char* dispatch_name(KernelDispatch dispatch);

/// Parses a --kernel-dispatch / HS_KERNEL_DISPATCH value. Throws
/// InvalidArgument on anything outside the vocabulary above.
KernelDispatch parse_dispatch(const std::string& name);

/// Clamps a request against the detected capabilities: kAuto maps to
/// detected_tier(), anything wider than the CPU supports narrows to it.
SimdTier resolve_dispatch(KernelDispatch dispatch);

/// RAII guard that forces a tier and restores the previous forcing on
/// destruction — the idiom of every cross-tier bit-identity test.
class ScopedKernelDispatch {
 public:
  explicit ScopedKernelDispatch(KernelDispatch dispatch);
  ~ScopedKernelDispatch();
  ScopedKernelDispatch(const ScopedKernelDispatch&) = delete;
  ScopedKernelDispatch& operator=(const ScopedKernelDispatch&) = delete;

 private:
  KernelDispatch previous_;
};

}  // namespace hs::common
