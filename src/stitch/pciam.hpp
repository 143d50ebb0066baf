// Phase Correlation Image Alignment Method (paper Fig 2) — CPU building
// blocks shared by the CPU implementations and reused piecewise by the GPU
// pipelines (which run the same math through virtual-GPU kernels).
#pragma once

#include <memory>
#include <vector>

#include "fft/plan2d.hpp"
#include "imgio/image.hpp"
#include "stitch/opcounts.hpp"
#include "stitch/types.hpp"
#include "vgpu/kernels.hpp"

namespace hs::stitch {

/// Reusable per-thread scratch so the hot path never allocates.
struct PciamScratch {
  std::vector<fft::Complex> a;  // NCC product / correlation surface
  std::vector<double> ra;       // two-for-one real staging (NaivePairwise)
  std::vector<double> rb;

  void ensure(std::size_t count) {
    if (a.size() < count) a.resize(count);
  }
  void ensure_real(std::size_t count) {
    if (ra.size() < count) {
      ra.resize(count);
      rb.resize(count);
    }
  }
};

/// The FFT strategy a backend runs PCIAM with: either the paper's full
/// complex transforms (h*w bins per tile) or the §VI future-work
/// real-to-complex path (h*(w/2+1) Hermitian half-spectrum bins — roughly
/// half the work and half the transform-cache footprint). Exactly one pair
/// of plans is populated.
///
/// This is the only code that branches on the mode. Every executor — the
/// host transform cache, naive and stolen pairs, Simple-GPU and the
/// pipelined GPU stages — runs the paper's Fig 2 sequence through the steps
/// below on buffers of spectrum_count() bins: stage (widen) ->
/// forward_inplace -> NCC -> inverse_inplace -> peaks. Each in-place step
/// runs the same arithmetic as its out-of-place plan, so every path yields
/// the same bits.
struct FftPipeline {
  bool real_fft = false;
  std::size_t height = 0;
  std::size_t width = 0;
  std::shared_ptr<const fft::Plan2d> forward;  // complex mode
  std::shared_ptr<const fft::Plan2d> inverse;  // complex mode
  std::shared_ptr<const fft::PlanR2c2d> r2c;   // real mode
  std::shared_ptr<const fft::PlanC2r2d> c2r;   // real mode

  /// Complex bins stored per tile transform.
  std::size_t spectrum_width() const {
    return real_fft ? width / 2 + 1 : width;
  }
  std::size_t spectrum_count() const { return height * spectrum_width(); }
  std::size_t transform_bytes() const {
    return spectrum_count() * sizeof(fft::Complex);
  }

  /// Widens `tile` into `buffer` (spectrum_count() bins) in the layout
  /// forward_inplace reads: complex pixels, or real rows at the padded r2c
  /// stride (see PlanR2c2d::execute_inplace_padded).
  void stage(const img::ImageU16& tile, fft::Complex* buffer) const;
  /// Staged tile -> spectrum, in place.
  void forward_inplace(fft::Complex* data) const;
  /// NCC product -> correlation surface, in place: height*width complex
  /// values, or height*width packed doubles in real mode.
  void inverse_inplace(fft::Complex* data) const;
  /// The top-k peaks of a surface inverse_inplace produced, in descending
  /// order (see vgpu::k_max_abs_topk).
  std::vector<vgpu::MaxAbsResult> peaks(const fft::Complex* surface,
                                        std::size_t k) const;
  /// Span labels of a command running one forward / inverse transform.
  const char* forward_label() const {
    return real_fft ? "fft2d_r2c" : "fft2d";
  }
  const char* inverse_label() const {
    return real_fft ? "ifft2d_c2r" : "ifft2d";
  }
};

/// Builds the pipeline for a tile size via the shared PlanCache.
FftPipeline make_fft_pipeline(std::size_t height, std::size_t width,
                              fft::Rigor rigor, bool use_real_fft);

/// A tile's forward transform: `out` receives spectrum_count() bins (the
/// full spectrum in complex mode, the half spectrum in real mode). The
/// transform runs in place in `out`; `scratch` is not used.
void tile_forward_spectrum(const img::ImageU16& tile,
                           const FftPipeline& pipeline, fft::Complex* out,
                           PciamScratch& scratch);

/// PCIAM steps 3-7 given both precomputed spectra (spectrum_count() bins
/// each): NCC, inverse transform, max reduction, CCF disambiguation on the
/// spatial tiles. Returns the displacement of `moved` relative to
/// `reference`. In real mode the NCC runs over the Hermitian half spectrum
/// (exact — the product of two real-signal spectra is Hermitian, so the
/// mirrored bins are implied) and the c2r inverse lands directly in a real
/// surface, so the max-abs top-k scans doubles instead of complex
/// magnitudes.
///
/// peak_candidates > 1 enables the multi-peak extension: the top-k
/// correlation-surface peaks are each disambiguated (4 CCFs per peak) and
/// the best interpretation overall wins. The paper tests only the global
/// max (k = 1, the default); its successor tool MIST tests several peaks
/// because the global max can be a noise spike on low-overlap data.
Translation pciam_from_spectra(const fft::Complex* spec_reference,
                               const fft::Complex* spec_moved,
                               const img::ImageU16& reference,
                               const img::ImageU16& moved,
                               const FftPipeline& pipeline,
                               PciamScratch& scratch, OpCountsAtomic* counts,
                               std::size_t peak_candidates = 1,
                               std::int64_t min_overlap_px = 1);

/// Whole-pair PCIAM computing both forward transforms on the spot — the
/// structure of the Fiji-style NaivePairwise baseline (no transform reuse:
/// each tile's FFT is recomputed for every pair it participates in). In
/// complex mode the pair's two real tiles share one complex FFT via the
/// two-for-one trick (fft_two_reals_2d); in real mode each tile gets its
/// own half-spectrum r2c transform.
Translation pciam_full(const img::ImageU16& reference,
                       const img::ImageU16& moved, const FftPipeline& pipeline,
                       PciamScratch& scratch, OpCountsAtomic* counts,
                       std::size_t peak_candidates = 1,
                       std::int64_t min_overlap_px = 1);

/// Picks the best interpretation over a set of surface peaks (flat indices
/// into the width-major correlation surface).
Translation disambiguate_peaks(const img::ImageU16& reference,
                               const img::ImageU16& moved,
                               const std::vector<std::size_t>& peak_indices,
                               std::size_t surface_width,
                               std::int64_t min_overlap_px = 1);

}  // namespace hs::stitch
