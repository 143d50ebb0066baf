// "CUDA kernels" of the stitching computation, virtual-GPU edition.
//
// The paper implements two custom kernels (normalized correlation
// coefficient, max-abs reduction with index) plus conversion/copy helpers.
// Here they are plain functions executed by stream workers; their math is
// shared with the CPU implementations so every backend produces bit-identical
// displacement tables.
//
// Each kernel dispatches at runtime to the widest SIMD variant the CPU (and
// common::active_tier(), which folds in the --kernel-dispatch flag and the
// HS_KERNEL_DISPATCH environment variable) allows: a scalar reference, an
// SSE2 variant, or an AVX2 variant — the paper: "We explicitly coded the
// functions for the element-wise vector multiplication and the max reduction
// with SSE intrinsics because the compiler ... was not generating such
// code." Every variant is bit-identical to its scalar reference (same
// per-element arithmetic, strictly-greater reductions with lowest-index tie
// breaks), so the tier changes wall-clock time only. The `*_scalar` entry
// points below expose the references for tests and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fft/types.hpp"

namespace hs::vgpu {

/// Widens 16-bit tile pixels into the complex working type.
void k_u16_to_complex(const std::uint16_t* src, fft::Complex* dst,
                      std::size_t count);

/// Portable scalar reference for k_u16_to_complex.
void k_u16_to_complex_scalar(const std::uint16_t* src, fft::Complex* dst,
                             std::size_t count);

/// Widens 16-bit tile pixels into doubles (half-spectrum real-FFT path).
void k_u16_to_real(const std::uint16_t* src, double* dst, std::size_t count);

/// Portable scalar reference for k_u16_to_real.
void k_u16_to_real_scalar(const std::uint16_t* src, double* dst,
                          std::size_t count);

/// Widens an h x w tile into the padded in-place r2c layout: row r's w
/// doubles start at double offset r * 2 * (w/2+1) of `dst` (which holds
/// h * (w/2+1) complex values). See PlanR2c2d::execute_inplace_padded.
void k_u16_to_real_padded(const std::uint16_t* src, fft::Complex* dst,
                          std::size_t height, std::size_t width);

/// Element-wise normalized conjugate multiplication (paper Fig 2, steps
/// 4-5): out = (fi * conj(fj)) / |fi * conj(fj)|, with zero-magnitude
/// elements mapped to 0 to keep the surface finite. Tier-dispatched
/// (scalar/SSE2/AVX2), bit-identical across tiers. Over Hermitian half
/// spectra (h x (w/2+1) bins) it is exact: the product of two real-signal
/// spectra is itself Hermitian, so the mirrored bins are implied by
/// conjugate symmetry, and the normalization |.| is symmetric.
void k_ncc(const fft::Complex* fi, const fft::Complex* fj, fft::Complex* out,
           std::size_t count);

/// Portable scalar reference for k_ncc (testing/benchmark baseline).
void k_ncc_scalar(const fft::Complex* fi, const fft::Complex* fj,
                  fft::Complex* out, std::size_t count);

struct MaxAbsResult {
  double value = 0.0;
  std::size_t index = 0;
};

/// Max |z| reduction returning the winning index (paper Fig 2, step 7 "max
/// in Inverse FFT"); ties resolve to the lowest index so all backends agree.
/// Tier-dispatched (scalar/SSE2/AVX2); bit-identical to the scalar
/// reference including tie-breaking.
MaxAbsResult k_max_abs(const fft::Complex* data, std::size_t count);

/// Portable scalar reference for k_max_abs.
MaxAbsResult k_max_abs_scalar(const fft::Complex* data, std::size_t count);

/// Max |x| reduction over a real surface (the c2r inverse of the Hermitian
/// NCC product lands directly in doubles). Same tie rules and tier dispatch
/// as k_max_abs; `value` is |x|.
MaxAbsResult k_max_abs_real(const double* data, std::size_t count);

/// Portable scalar reference for k_max_abs_real.
MaxAbsResult k_max_abs_real_scalar(const double* data, std::size_t count);

/// Top-k |z| values in descending order (ties by ascending index), all
/// indices distinct. k is clamped to count. Used by the multi-peak
/// disambiguation extension: the correlation surface's global max can be a
/// noise spike on low-overlap data, and the true displacement is usually
/// among the next few peaks (the approach MIST, this system's successor,
/// adopted).
std::vector<MaxAbsResult> k_max_abs_topk(const fft::Complex* data,
                                         std::size_t count, std::size_t k);

/// Top-k |x| over a real surface (the c2r inverse of the Hermitian NCC
/// product lands directly in doubles). Same ordering/tie rules as
/// k_max_abs_topk; `value` is |x|.
std::vector<MaxAbsResult> k_max_abs_topk_real(const double* data,
                                              std::size_t count,
                                              std::size_t k);

}  // namespace hs::vgpu
