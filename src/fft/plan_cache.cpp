#include "fft/plan_cache.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <tuple>

#include "common/simd.hpp"
#include "metrics/wellknown.hpp"

namespace hs::fft {

namespace {

// Cached per-rigor metric handles: hit/miss tracking is one relaxed add.
struct CacheMetrics {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Histogram& build_us;
};

// Hits by the cached plan's butterfly codelet tier: which variants actually
// re-run.
metrics::Counter& tier_hits(common::SimdTier tier) {
  using metrics::wellknown::plan_cache_tier_hits;
  static metrics::Counter& scalar = plan_cache_tier_hits("scalar");
  static metrics::Counter& sse2 = plan_cache_tier_hits("sse2");
  static metrics::Counter& avx2 = plan_cache_tier_hits("avx2");
  switch (tier) {
    case common::SimdTier::kScalar: return scalar;
    case common::SimdTier::kSse2: return sse2;
    case common::SimdTier::kAvx2: return avx2;
  }
  return scalar;
}

// Keeps the hs_kernel_dispatch info gauges of the transpose and fft
// families current. Each family keeps one last-tier state, shared by every
// plan kind, and its gauge is written only when the tier actually changes.
// Every plan kind's row blocks run a transpose.
template <typename Plan>
void note_dispatch(const Plan& plan) {
  static std::atomic<int> last_transpose{-1};
  static std::atomic<int> last_fft{-1};
  const auto note = [](const char* family, std::atomic<int>& last,
                       common::SimdTier tier) {
    const int t = static_cast<int>(tier);
    if (last.exchange(t, std::memory_order_relaxed) != t) {
      metrics::wellknown::note_kernel_dispatch(family, tier);
    }
  };
  note("transpose", last_transpose, plan.transpose_tier());
  note("fft", last_fft, plan.fft_tier());
}

CacheMetrics& cache_metrics(Rigor rigor) {
  using namespace metrics::wellknown;
  static CacheMetrics estimate{plan_cache_hits("estimate"),
                               plan_cache_misses("estimate"),
                               plan_build_us("estimate")};
  static CacheMetrics measure{plan_cache_hits("measure"),
                              plan_cache_misses("measure"),
                              plan_build_us("measure")};
  static CacheMetrics patient{plan_cache_hits("patient"),
                              plan_cache_misses("patient"),
                              plan_build_us("patient")};
  switch (rigor) {
    case Rigor::kEstimate: return estimate;
    case Rigor::kMeasure: return measure;
    case Rigor::kPatient: return patient;
  }
  return estimate;
}

}  // namespace

struct PlanCache::Impl {
  // (height, width, direction, rigor, tier). The real plans fix their
  // direction per type. The active SIMD tier at lookup time joins every key:
  // plans built under a forced narrow dispatch must not be served to (or
  // poison) lookups made under a wider one.
  using Key = std::tuple<std::size_t, std::size_t, int, int, int>;
  template <typename Plan>
  using Map = std::map<Key, std::shared_ptr<const Plan>>;

  mutable std::mutex mutex;
  Map<Plan2d> plans_2d;
  Map<PlanR2c2d> plans_r2c_2d;
  Map<PlanC2r2d> plans_c2r_2d;

  static Key key(std::size_t height, std::size_t width, Direction dir,
                 Rigor rigor) {
    return {height, width, static_cast<int>(dir), static_cast<int>(rigor),
            static_cast<int>(common::active_tier())};
  }

  // Returns map[key], building it with build() on a miss. Plans build
  // outside the lock: planning can take milliseconds-to-seconds at high
  // rigor and must not serialize unrelated lookups. A racing thread may plan
  // the same key; the first insert wins and the duplicate is discarded.
  template <typename Plan, typename Build>
  std::shared_ptr<const Plan> find_or_build(Map<Plan>& map, const Key& k,
                                            Rigor rigor, Build build) {
    CacheMetrics& m = cache_metrics(rigor);
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (auto it = map.find(k); it != map.end()) {
        m.hits.add();
        tier_hits(it->second->fft_tier()).add();
        return it->second;
      }
    }
    m.misses.add();
    std::shared_ptr<const Plan> plan;
    {
      HS_METRIC_TIMER(m.build_us);
      plan = build();
    }
    note_dispatch(*plan);
    std::lock_guard<std::mutex> lock(mutex);
    return map.emplace(k, std::move(plan)).first->second;
  }
};

PlanCache::PlanCache() : impl_(std::make_unique<Impl>()) {}
PlanCache::~PlanCache() = default;

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const Plan2d> PlanCache::plan_2d(std::size_t height,
                                                 std::size_t width,
                                                 Direction dir, Rigor rigor) {
  return impl_->find_or_build(
      impl_->plans_2d, Impl::key(height, width, dir, rigor), rigor, [&] {
        return std::make_shared<const Plan2d>(height, width, dir, rigor);
      });
}

std::shared_ptr<const PlanR2c2d> PlanCache::plan_r2c_2d(std::size_t height,
                                                        std::size_t width,
                                                        Rigor rigor) {
  return impl_->find_or_build(
      impl_->plans_r2c_2d,
      Impl::key(height, width, Direction::kForward, rigor), rigor, [&] {
        return std::make_shared<const PlanR2c2d>(height, width, rigor);
      });
}

std::shared_ptr<const PlanC2r2d> PlanCache::plan_c2r_2d(std::size_t height,
                                                        std::size_t width,
                                                        Rigor rigor) {
  return impl_->find_or_build(
      impl_->plans_c2r_2d,
      Impl::key(height, width, Direction::kInverse, rigor), rigor, [&] {
        return std::make_shared<const PlanC2r2d>(height, width, rigor);
      });
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->plans_2d.clear();
  impl_->plans_r2c_2d.clear();
  impl_->plans_c2r_2d.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->plans_2d.size() + impl_->plans_r2c_2d.size() +
         impl_->plans_c2r_2d.size();
}

}  // namespace hs::fft
