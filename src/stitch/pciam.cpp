#include "stitch/pciam.hpp"

#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "stitch/ccf.hpp"
#include "vgpu/kernels.hpp"

namespace hs::stitch {

FftPipeline make_fft_pipeline(std::size_t height, std::size_t width,
                              fft::Rigor rigor, bool use_real_fft) {
  FftPipeline p;
  p.real_fft = use_real_fft;
  p.height = height;
  p.width = width;
  auto& cache = fft::PlanCache::instance();
  if (use_real_fft) {
    p.r2c = cache.plan_r2c_2d(height, width, rigor);
    p.c2r = cache.plan_c2r_2d(height, width, rigor);
  } else {
    p.forward = cache.plan_2d(height, width, fft::Direction::kForward, rigor);
    p.inverse = cache.plan_2d(height, width, fft::Direction::kInverse, rigor);
  }
  return p;
}

void FftPipeline::stage(const img::ImageU16& tile,
                        fft::Complex* buffer) const {
  if (real_fft) {
    vgpu::k_u16_to_real_padded(tile.data(), buffer, height, width);
  } else {
    vgpu::k_u16_to_complex(tile.data(), buffer, height * width);
  }
}

void FftPipeline::forward_inplace(fft::Complex* data) const {
  if (real_fft) {
    r2c->execute_inplace_padded(data);
  } else {
    forward->execute_inplace(data);
  }
}

void FftPipeline::inverse_inplace(fft::Complex* data) const {
  if (real_fft) {
    c2r->execute_inplace_half(data);
  } else {
    inverse->execute_inplace(data);
  }
}

std::vector<vgpu::MaxAbsResult> FftPipeline::peaks(const fft::Complex* surface,
                                                   std::size_t k) const {
  const std::size_t count = height * width;
  return real_fft ? vgpu::k_max_abs_topk_real(
                        reinterpret_cast<const double*>(surface), count, k)
                  : vgpu::k_max_abs_topk(surface, count, k);
}

void tile_forward_spectrum(const img::ImageU16& tile,
                           const FftPipeline& pipeline, fft::Complex* out,
                           PciamScratch& /*scratch*/) {
  HS_REQUIRE(pipeline.height == tile.height() &&
                 pipeline.width == tile.width(),
             "pipeline does not match tile size");
  pipeline.stage(tile, out);
  pipeline.forward_inplace(out);
}

Translation disambiguate_peaks(const img::ImageU16& reference,
                               const img::ImageU16& moved,
                               const std::vector<std::size_t>& peak_indices,
                               std::size_t surface_width,
                               std::int64_t min_overlap_px) {
  Translation best;
  for (const std::size_t index : peak_indices) {
    const Translation t =
        disambiguate_peak(reference, moved, index % surface_width,
                          index / surface_width, min_overlap_px);
    if (t.correlation > best.correlation) best = t;
  }
  return best;
}

Translation pciam_from_spectra(const fft::Complex* spec_reference,
                               const fft::Complex* spec_moved,
                               const img::ImageU16& reference,
                               const img::ImageU16& moved,
                               const FftPipeline& pipeline,
                               PciamScratch& scratch, OpCountsAtomic* counts,
                               std::size_t peak_candidates,
                               std::int64_t min_overlap_px) {
  const std::size_t bins = pipeline.spectrum_count();
  HS_REQUIRE(reference.same_shape(moved), "pciam requires equal-size tiles");
  HS_REQUIRE(peak_candidates >= 1, "need at least one peak candidate");
  scratch.ensure(bins);

  // Steps 4-5: normalized correlation coefficients.
  vgpu::k_ncc(spec_reference, spec_moved, scratch.a.data(), bins);
  // Step 6: inverse transform of the NCC, in place.
  pipeline.inverse_inplace(scratch.a.data());
  // Step 7: max reduction (top-k when the multi-peak extension is on).
  const auto peaks = pipeline.peaks(scratch.a.data(), peak_candidates);
  std::vector<std::size_t> indices;
  indices.reserve(peaks.size());
  for (const auto& peak : peaks) indices.push_back(peak.index);

  if (counts != nullptr) {
    counts->bump(counts->ncc_multiplies);
    counts->bump(counts->inverse_ffts);
    counts->bump(counts->max_reductions);
    counts->bump(counts->ccf_evaluations, 4 * indices.size());
  }
  // Steps 8-12: resolve the periodic ambiguity with spatial-domain CCFs.
  return disambiguate_peaks(reference, moved, indices, reference.width(),
                            min_overlap_px);
}

Translation pciam_full(const img::ImageU16& reference,
                       const img::ImageU16& moved, const FftPipeline& pipeline,
                       PciamScratch& scratch, OpCountsAtomic* counts,
                       std::size_t peak_candidates,
                       std::int64_t min_overlap_px) {
  const std::size_t count = reference.pixel_count();
  const std::size_t bins = pipeline.spectrum_count();
  std::vector<fft::Complex> fft_ref(bins), fft_mov(bins);
  if (pipeline.real_fft) {
    tile_forward_spectrum(reference, pipeline, fft_ref.data(), scratch);
    tile_forward_spectrum(moved, pipeline, fft_mov.data(), scratch);
    if (counts != nullptr) {
      counts->bump(counts->forward_ffts, 2);
      counts->bump(counts->transform_bins, 2 * bins);
    }
  } else {
    // Two-for-one: both real tiles share a single complex forward FFT.
    scratch.ensure_real(count);
    vgpu::k_u16_to_real(reference.data(), scratch.ra.data(), count);
    vgpu::k_u16_to_real(moved.data(), scratch.rb.data(), count);
    fft::fft_two_reals_2d(*pipeline.forward, scratch.ra.data(),
                          scratch.rb.data(), fft_ref.data(), fft_mov.data());
    if (counts != nullptr) {
      counts->bump(counts->forward_ffts);
      counts->bump(counts->transform_bins, 2 * bins);
    }
  }
  return pciam_from_spectra(fft_ref.data(), fft_mov.data(), reference, moved,
                            pipeline, scratch, counts, peak_candidates,
                            min_overlap_px);
}

}  // namespace hs::stitch
