// SIMD codelets for the FFT hot loops, selected at plan time.
//
// FFTW composes its transforms from small compiled "codelets" and lets the
// planner pick between them; this module is the same idea scaled to the
// loops this library actually spends time in:
//   * bf2 / bf4 — the specialized radix-2/radix-4 DIT butterflies, twiddle
//     application included.
//   * bfr — the generic butterfly (radix <= kMaxDirectRadix), vectorized
//     across the m contiguous sub-transform columns. Odd radices run in
//     conjugate-pair form (FFTW's generic-codelet symmetry, about a quarter
//     of the dense r x r product's arithmetic); even composite radices,
//     which only wisdom requests, keep the dense product.
//   * transpose — the cache-blocked transpose every 2-D plan's row blocks
//     run through.
//   * r2c_untangle / c2r_retangle — the even/odd packing arithmetic of the
//     half-spectrum real transforms.
//
// Each operation ships a scalar reference plus SSE2 and AVX2 variants; a
// Set bundles one variant of each. Every variant executes the *identical
// per-element operation sequence* as the scalar reference — same multiplies,
// same adds, no FMA contraction (the codelet translation units compile with
// -ffp-contract=off) — so outputs are bit-identical across tiers (signed
// zeros excepted, which compare equal) and displacement tables never depend
// on the dispatch tier.
//
// Tiers whose ISA is unavailable at build time alias the next-narrower set,
// so set_for() is total on every platform.
#pragma once

#include <cstddef>

#include "common/simd.hpp"
#include "fft/types.hpp"

namespace hs::fft::codelets {

struct Set {
  common::SimdTier tier;

  /// Radix-2 combine over one butterfly group: for k in [0, m)
  ///   b = out[m+k] * tw[m+k];  out[k] = a + b;  out[m+k] = a - b.
  void (*bf2)(Complex* out, const Complex* tw, std::size_t m);

  /// Radix-4 combine; tw rows 1..3 hold the twiddles (row 0 is implied 1).
  void (*bf4)(Complex* out, const Complex* tw, std::size_t m, bool forward);

  /// Generic radix-r combine; wr is the r x r DFT matrix of the radix. Odd r
  /// reads only rows 1..(r-1)/2 of wr, columns 1..(r-1)/2.
  void (*bfr)(Complex* out, const Complex* tw, const Complex* wr, int r,
              std::size_t m);

  /// Cache-blocked transpose: in is rows x cols, out becomes cols x rows.
  void (*transpose)(const Complex* in, Complex* out, std::size_t rows,
                    std::size_t cols);

  /// Half-spectrum untangle of the even/odd packed transform zf (length h)
  /// into bins out[0..h) using twiddles tw[0..h]; the Nyquist bin out[h]
  /// is the caller's (scalar, one element).
  void (*r2c_untangle)(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h);

  /// Inverse of r2c_untangle: retangles half-spectrum bins in[0..h] into
  /// the packed signal z[0..h) ahead of the half-length inverse transform.
  void (*c2r_retangle)(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h);
};

/// The codelet set for a tier (total: unavailable ISAs alias narrower sets).
const Set& set_for(common::SimdTier tier);

/// set_for(common::active_tier()) — the dispatch-site shorthand.
const Set& active_set();

// Per-tier sets, exported for the planner's measurement sweep and tests.
const Set& scalar_set();
const Set& sse2_set();
const Set& avx2_set();

}  // namespace hs::fft::codelets
