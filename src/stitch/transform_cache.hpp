// Reference-counted tile/transform cache.
//
// Paper SIV: "freeing an image's transform memory as soon as the relative
// displacements of its eastern, southern, western, and northern neighbors
// were computed" and "every tile has a reference count that is decremented
// when the tile is used to compute a relative displacement." Each tile entry
// starts with a reference count equal to the number of pairs the caller
// will compute on it (its degree in the pair graph for a whole-grid run);
// get() computes the transform (and loads the tile) on first use, and
// release() frees both at zero. Thread-safe with per-entry compute-once
// semantics so the SPMD implementation can share one cache across threads.
//
// When bound to a SharedSpectrumCache (shared_cache.hpp) the per-run cache
// becomes a refcounted view over the cross-job store: spectra are looked up
// by tile-content digest before being computed, freshly computed spectra are
// published for other jobs, and release() drops this run's reference while
// the shared store keeps the allocation alive for future jobs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fft/plan2d.hpp"
#include "metrics/metrics.hpp"
#include "stitch/opcounts.hpp"
#include "stitch/pciam.hpp"
#include "stitch/shared_cache.hpp"
#include "stitch/types.hpp"

namespace hs::stitch {

class TransformCache {
 public:
  /// `refcounts`, indexed by layout.index_of, holds each tile's initial
  /// reference count: the number of pairs the caller will compute on it
  /// (pair_degree for a whole-grid run; fewer under a warm start or for a
  /// band of the grid). A tile at zero is never read or transformed.
  /// Entries hold pipeline.spectrum_count() bins — half-spectrum pipelines
  /// halve the cache's footprint. `shared` optionally binds the run to a
  /// cross-job content-addressed store (see shared_cache.hpp).
  TransformCache(const TileProvider& provider, FftPipeline pipeline,
                 OpCountsAtomic* counts, std::vector<std::size_t> refcounts,
                 SharedCacheBinding shared = SharedCacheBinding());

  /// The tile's degree in the full pair graph.
  static std::size_t pair_degree(const img::GridLayout& layout,
                                 img::TilePos pos);

  /// Returns the tile's forward transform, computing it (and reading the
  /// tile) on first call. Blocks if another thread is computing it.
  const fft::Complex* transform(img::TilePos pos);

  /// Best-effort warm-up that takes no reference: computes the transform
  /// only if the entry is still untouched. Unlike transform(), it is safe
  /// to call on a tile whose consumers already released it to zero (the
  /// prefetcher losing the race to fast workers is benign, not an error).
  void prefetch(img::TilePos pos);

  /// The spatial tile (valid while the entry is live), for CCF evaluation.
  const img::ImageU16& tile(img::TilePos pos);

  /// The tile's content digest (shared_cache.hpp), computed and memoized on
  /// first call. Reads the tile if the entry has not loaded it yet (the read
  /// is reused by a later transform()); must not be called on an entry whose
  /// consumers already released it to zero.
  std::uint64_t digest(img::TilePos pos);

  /// Decrements the reference count; frees the entry when it reaches zero.
  /// Tolerant of entries that never computed a transform — a consumer whose
  /// pair failed (quarantined tile) or was served by the shared pair store
  /// releases its references like any other.
  void release(img::TilePos pos);

  std::size_t live_transforms() const {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t peak_live_transforms() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Peak bytes held in transform entries (excludes the spatial tiles):
  /// peak_live_transforms() * spectrum_count * sizeof(Complex).
  std::size_t peak_transform_bytes() const {
    return peak_live_transforms() * pipeline_.transform_bytes();
  }
  const FftPipeline& pipeline() const { return pipeline_; }
  const SharedCacheBinding& shared() const { return shared_; }
  /// The dispatch tier captured at construction, part of every shared-store
  /// key this run looks up.
  common::SimdTier tier() const { return tier_; }

 private:
  struct Entry {
    std::mutex mutex;
    std::condition_variable ready_cv;
    enum class State { kEmpty, kComputing, kReady, kFreed } state =
        State::kEmpty;
    // Shared ownership so an entry can adopt a spectrum resident in the
    // cross-job store without copying; unshared runs simply hold the only
    // reference.
    std::shared_ptr<const std::vector<fft::Complex>> transform;
    img::ImageU16 tile;
    bool tile_loaded = false;
    // The digest outlives the payload (it is cheap and lets a released
    // entry still answer digest() during teardown races).
    bool digest_valid = false;
    std::uint64_t digest = 0;
    std::size_t refcount = 0;
  };

  Entry& entry(img::TilePos pos) { return *entries_[layout_.index_of(pos)]; }
  const fft::Complex* transform_impl(img::TilePos pos, bool prefetch_only);
  static std::size_t entry_resident_bytes(const Entry& e);
  void note_live(std::ptrdiff_t delta);

  const TileProvider& provider_;
  img::GridLayout layout_;
  FftPipeline pipeline_;
  OpCountsAtomic* counts_;
  SharedCacheBinding shared_;
  common::SimdTier tier_;  // dispatch tier captured at construction
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};

  // Process-wide metric handles, cached once at construction so the per-tile
  // bookkeeping is a relaxed atomic add (wellknown.hpp).
  metrics::Counter& metric_hits_;
  metrics::Counter& metric_misses_;
  metrics::Counter& metric_evictions_;
  metrics::Gauge& metric_resident_bytes_;
};

}  // namespace hs::stitch
