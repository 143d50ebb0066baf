#include "stitch/transform_cache.hpp"

#include "metrics/wellknown.hpp"

namespace hs::stitch {

TransformCache::TransformCache(const TileProvider& provider,
                               FftPipeline pipeline, OpCountsAtomic* counts,
                               std::vector<std::size_t> refcounts,
                               SharedCacheBinding shared)
    : provider_(provider),
      layout_(provider.layout()),
      pipeline_(std::move(pipeline)),
      counts_(counts),
      shared_(std::move(shared)),
      tier_(common::active_tier()),
      metric_hits_(metrics::wellknown::transform_cache_hits()),
      metric_misses_(metrics::wellknown::transform_cache_misses()),
      metric_evictions_(metrics::wellknown::transform_cache_evictions()),
      metric_resident_bytes_(
          metrics::wellknown::transform_cache_resident_bytes()) {
  HS_REQUIRE(refcounts.size() == layout_.tile_count(),
             "TransformCache: one reference count per tile");
  entries_.reserve(layout_.tile_count());
  for (const std::size_t refs : refcounts) {
    auto e = std::make_unique<Entry>();
    e->refcount = refs;
    entries_.push_back(std::move(e));
  }
}

std::size_t TransformCache::pair_degree(const img::GridLayout& layout,
                                        img::TilePos pos) {
  std::size_t degree = 0;
  if (layout.has_west(pos)) ++degree;
  if (layout.has_east(pos)) ++degree;
  if (layout.has_north(pos)) ++degree;
  if (layout.has_south(pos)) ++degree;
  return degree;
}

const fft::Complex* TransformCache::transform(img::TilePos pos) {
  return transform_impl(pos, /*prefetch_only=*/false);
}

void TransformCache::prefetch(img::TilePos pos) {
  transform_impl(pos, /*prefetch_only=*/true);
}

const fft::Complex* TransformCache::transform_impl(img::TilePos pos,
                                                   bool prefetch_only) {
  Entry& e = entry(pos);
  std::unique_lock<std::mutex> lock(e.mutex);
  if (prefetch_only &&
      (e.refcount == 0 || e.state != Entry::State::kEmpty)) {
    // Already computed, being computed, or released by consumers that beat
    // the prefetcher to the whole tile — nothing useful left to warm. The
    // guard and the state transition happen under one lock acquisition, so
    // a prefetch can never revive a freed entry.
    return nullptr;
  }
  for (;;) {
    HS_ASSERT_MSG(e.state != Entry::State::kFreed,
                  "transform requested after release to zero");
    if (e.state == Entry::State::kReady) {
      metric_hits_.add();
      return e.transform->data();
    }
    if (e.state == Entry::State::kComputing) {
      // Another thread computes; if it fails the entry reverts to kEmpty
      // and this thread retries (and surfaces the same error itself).
      e.ready_cv.wait(lock, [&] { return e.state != Entry::State::kComputing; });
      continue;
    }
    break;  // kEmpty: this thread computes.
  }
  // Drop the lock during the expensive part so other tiles are not
  // serialized behind this one. An earlier digest() may already have loaded
  // the tile and computed the digest — take both along under the lock.
  metric_misses_.add();
  e.state = Entry::State::kComputing;
  bool have_tile = e.tile_loaded;
  img::ImageU16 tile = std::move(e.tile);
  e.tile_loaded = false;
  bool have_digest = e.digest_valid;
  std::uint64_t content_digest = e.digest;
  lock.unlock();

  const fft::Complex* data = nullptr;
  try {
    if (!have_tile) {
      tile = provider_.load(pos);
      if (counts_ != nullptr) counts_->bump(counts_->tile_reads);
    }
    // The forward transform runs in place in the spectrum's own storage.
    auto compute_spectrum = [&] {
      auto computed = std::make_shared<std::vector<fft::Complex>>(
          pipeline_.spectrum_count());
      pipeline_.stage(tile, computed->data());
      pipeline_.forward_inplace(computed->data());
      if (counts_ != nullptr) {
        counts_->bump(counts_->forward_ffts);
        counts_->bump(counts_->transform_bins, pipeline_.spectrum_count());
      }
      return computed;
    };
    std::shared_ptr<const std::vector<fft::Complex>> spectrum;
    if (shared_.cache != nullptr) {
      if (!have_digest) {
        content_digest = tile_content_digest(tile);
        have_digest = true;
      }
      const SpectrumKey key{content_digest,
                            static_cast<std::uint32_t>(pipeline_.height),
                            static_cast<std::uint32_t>(pipeline_.width),
                            pipeline_.real_fft, tier_};
      spectrum = shared_.cache->find_spectrum(key, shared_.tenant,
                                              shared_.tenant_quota_bytes);
      if (spectrum == nullptr) {
        spectrum = shared_.cache->insert_spectrum(
            key, compute_spectrum(), shared_.tenant,
            shared_.tenant_quota_bytes, shared_.spill);
      }
      // Spectrum-store hits skip the FFT entirely, so forward_ffts and
      // transform_bins stay untouched — the op counters keep reporting the
      // work actually performed, which is what the dedup tests assert.
    } else {
      spectrum = compute_spectrum();
    }

    lock.lock();
    if (e.refcount == 0) {
      // Only an untracked prefetch can be computing at refcount zero: a
      // shared pair-store hit released the entry's last reference while this
      // prefetch was in flight. Discard without touching the resident/live
      // accounting (the entry was never accounted) — the spectrum itself was
      // still published to the shared store above, which is the whole point
      // of prefetching.
      e.state = Entry::State::kFreed;
      e.digest = content_digest;
      e.digest_valid = have_digest;
      lock.unlock();
      e.ready_cv.notify_all();
      return nullptr;
    }
    e.tile = std::move(tile);
    e.tile_loaded = true;
    e.digest = content_digest;
    e.digest_valid = have_digest;
    e.transform = std::move(spectrum);
    e.state = Entry::State::kReady;
    const std::size_t entry_bytes = entry_resident_bytes(e);
    // Capture under the lock: once it drops, consumers that beat the
    // prefetcher to refcount zero may release() and free the vector, and
    // an unlocked e.transform->data() would race with that reset.
    data = e.transform->data();
    lock.unlock();
    metric_resident_bytes_.add(static_cast<std::int64_t>(entry_bytes));
  } catch (...) {
    // Leave the entry retryable and wake waiters so nobody hangs on a
    // transform that will never arrive. The moved-out tile is lost; a retry
    // re-reads it.
    lock.lock();
    e.state = Entry::State::kEmpty;
    e.digest = content_digest;
    e.digest_valid = have_digest;
    lock.unlock();
    e.ready_cv.notify_all();
    throw;
  }
  e.ready_cv.notify_all();
  note_live(+1);
  return data;
}

const img::ImageU16& TransformCache::tile(img::TilePos pos) {
  Entry& e = entry(pos);
  std::unique_lock<std::mutex> lock(e.mutex);
  HS_ASSERT_MSG(e.state == Entry::State::kReady ||
                    e.state == Entry::State::kComputing,
                "tile requested before transform() or after free");
  e.ready_cv.wait(lock, [&] { return e.state == Entry::State::kReady; });
  return e.tile;
}

std::uint64_t TransformCache::digest(img::TilePos pos) {
  Entry& e = entry(pos);
  std::unique_lock<std::mutex> lock(e.mutex);
  for (;;) {
    if (e.digest_valid) return e.digest;
    if (e.state == Entry::State::kComputing) {
      // The computing thread digests the tile it holds; wait for it rather
      // than racing it with a second read of the same tile.
      e.ready_cv.wait(lock,
                      [&] { return e.state != Entry::State::kComputing; });
      continue;
    }
    break;
  }
  HS_ASSERT_MSG(e.state != Entry::State::kFreed,
                "digest requested after release to zero");
  // Load under the entry lock so two threads digesting one tile cannot
  // double-read it; the read is reused by a later transform() on this entry.
  if (!e.tile_loaded) {
    e.tile = provider_.load(pos);
    e.tile_loaded = true;
    if (counts_ != nullptr) counts_->bump(counts_->tile_reads);
  }
  e.digest = tile_content_digest(e.tile);
  e.digest_valid = true;
  return e.digest;
}

void TransformCache::release(img::TilePos pos) {
  Entry& e = entry(pos);
  std::lock_guard<std::mutex> lock(e.mutex);
  HS_ASSERT_MSG(e.refcount > 0, "release below zero");
  if (--e.refcount > 0) return;
  if (e.state == Entry::State::kComputing) {
    // An untracked prefetch is mid-compute; it observes refcount == 0 at
    // commit time and frees the entry itself.
    return;
  }
  if (e.state == Entry::State::kReady) {
    // Only computed entries were ever accounted; entries that never reached
    // kReady (compute threw on a quarantined tile, or a shared pair-store
    // hit made the transform unnecessary) are freed without touching the
    // gauges so resident-byte and eviction accounting stays exact.
    const std::size_t entry_bytes = entry_resident_bytes(e);
    note_live(-1);
    metric_evictions_.add();
    metric_resident_bytes_.add(-static_cast<std::int64_t>(entry_bytes));
  }
  e.transform.reset();
  e.tile = img::ImageU16();
  e.tile_loaded = false;
  e.state = Entry::State::kFreed;
}

std::size_t TransformCache::entry_resident_bytes(const Entry& e) {
  return (e.transform != nullptr
              ? e.transform->size() * sizeof(fft::Complex)
              : 0) +
         e.tile.pixel_count() * sizeof(std::uint16_t);
}

void TransformCache::note_live(std::ptrdiff_t delta) {
  if (delta > 0) {
    const std::size_t now = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  } else {
    live_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace hs::stitch
