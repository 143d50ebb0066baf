// Shared types for the HybridStitch FFT library.
//
// The library mirrors the plan/execute split of FFTW and cuFFT, the two
// libraries the paper builds on: a Plan is created once (optionally spending
// planning time to auto-tune, cf. FFTW's estimate/measure/patient modes) and
// then executed many times. Inverse transforms are unnormalized, matching
// both FFTW and cuFFT conventions.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace hs::fft {

using Complex = std::complex<double>;

enum class Direction { kForward, kInverse };

/// Planning rigor, mirroring FFTW's planner flags. kEstimate picks a
/// heuristic factor ordering; kMeasure and kPatient time candidate execution
/// strategies on scratch data and keep the fastest (kPatient explores more
/// candidates). The paper reports patient planning gave a 2x FFT improvement
/// over estimate for its 1392x1040 tiles.
enum class Rigor { kEstimate, kMeasure, kPatient };

/// Revision of the transforms' output bits. Bump it whenever any
/// transform's output bits change. Spill frames and pair-log records carry
/// it, and a spill store drops what another revision wrote, so a spill dir
/// never feeds old bits into new jobs. The golden CRCs that pin today's bits
/// (TransformGoldenBits in tests/stitch_algo_test.cpp) move with it.
inline constexpr std::uint16_t kTransformRevision = 1;

}  // namespace hs::fft
