// Multi-tenant serving and the cross-job shared transform cache:
//  - tile content digests and the SharedSpectrumCache LRU/quota mechanics,
//  - TransformCache::release tolerance after a failed compute (regression:
//    releasing a consumer of a tile whose load threw used to die on a
//    state assertion),
//  - the serve scheduler's headroom clamp (regression: an oversized
//    recovery resubmit drove memory_in_use_ above the budget and the
//    unsigned subtraction wrapped, admitting everything at once),
//  - cross-job dedup through one StitchService (warm resubmits skip every
//    FFT and stay bit-identical to the unshared path on all backends),
//  - weighted-fair admission ordering and per-tenant memory quotas.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fft/plan2d.hpp"
#include "metrics/wellknown.hpp"
#include "sched/cost_model.hpp"
#include "serve/footprint.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "stitch/pciam.hpp"
#include "stitch/request.hpp"
#include "stitch/shared_cache.hpp"
#include "stitch/transform_cache.hpp"
#include "testing_providers.hpp"

namespace hs {
namespace {

namespace fs = std::filesystem;
using testing_clock = std::chrono::steady_clock;

stitch::StitchOptions cpu_options() {
  stitch::StitchOptions options = testing::fast_options();
  return options;
}

img::ImageU16 solid_tile(std::size_t h, std::size_t w, std::uint16_t value) {
  img::ImageU16 tile(h, w);
  for (std::size_t i = 0; i < tile.pixel_count(); ++i) tile.data()[i] = value;
  return tile;
}

bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      testing_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (testing_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Content digests
// ---------------------------------------------------------------------------

TEST(TileContentDigest, DeterministicAndContentSensitive) {
  const auto grid = testing::small_grid();
  const img::ImageU16& a = grid.tile({0, 0});
  const img::ImageU16& b = grid.tile({0, 1});

  EXPECT_EQ(stitch::tile_content_digest(a), stitch::tile_content_digest(a));
  EXPECT_NE(stitch::tile_content_digest(a), stitch::tile_content_digest(b));

  // A copy with one flipped bit must digest differently.
  img::ImageU16 mutated = a;
  mutated.data()[0] ^= 1;
  EXPECT_NE(stitch::tile_content_digest(a), stitch::tile_content_digest(mutated));
}

TEST(TileContentDigest, ExtentsArePartOfTheDigest) {
  // Same bytes, different shape: 4x8 vs 8x4 of one constant value.
  const img::ImageU16 wide = solid_tile(4, 8, 7);
  const img::ImageU16 tall = solid_tile(8, 4, 7);
  EXPECT_NE(stitch::tile_content_digest(wide),
            stitch::tile_content_digest(tall));
}

// ---------------------------------------------------------------------------
// SharedSpectrumCache mechanics
// ---------------------------------------------------------------------------

stitch::SharedSpectrumCache::SpectrumPtr make_spectrum(std::size_t bins,
                                                       double seed) {
  auto spectrum = std::make_shared<std::vector<fft::Complex>>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    (*spectrum)[i] = fft::Complex{seed + static_cast<double>(i), -seed};
  }
  return spectrum;
}

stitch::SpectrumKey spectrum_key(std::uint64_t digest) {
  stitch::SpectrumKey key;
  key.digest = digest;
  key.height = 8;
  key.width = 8;
  return key;
}

TEST(SharedSpectrumCacheTest, InsertFindFirstWriterWins) {
  stitch::SharedSpectrumCache cache;
  const stitch::SpectrumKey key = spectrum_key(1);

  EXPECT_EQ(cache.find_spectrum(key), nullptr);
  auto mine = make_spectrum(64, 1.0);
  auto resident = cache.insert_spectrum(key, mine, "default", 0);
  EXPECT_EQ(resident, mine);

  // A second writer of the same key adopts the resident copy.
  auto theirs = make_spectrum(64, 2.0);
  auto adopted = cache.insert_spectrum(key, theirs, "default", 0);
  EXPECT_EQ(adopted, mine);
  EXPECT_EQ(cache.find_spectrum(key), mine);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.spectrum_hits, 1u);
  EXPECT_EQ(stats.spectrum_misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SharedSpectrumCacheTest, CapacityEvictsLeastRecentlyUsed) {
  // Capacity fits two spectra (plus overhead), not three.
  const std::size_t bins = 64;
  const std::size_t bytes = bins * sizeof(fft::Complex) + 64;
  stitch::SharedSpectrumCache::Config config;
  config.capacity_bytes = 2 * bytes + bytes / 2;
  stitch::SharedSpectrumCache cache(config);

  cache.insert_spectrum(spectrum_key(1), make_spectrum(bins, 1.0), "t", 0);
  cache.insert_spectrum(spectrum_key(2), make_spectrum(bins, 2.0), "t", 0);
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_NE(cache.find_spectrum(spectrum_key(1)), nullptr);
  cache.insert_spectrum(spectrum_key(3), make_spectrum(bins, 3.0), "t", 0);

  EXPECT_NE(cache.find_spectrum(spectrum_key(1)), nullptr);
  EXPECT_EQ(cache.find_spectrum(spectrum_key(2)), nullptr);
  EXPECT_NE(cache.find_spectrum(spectrum_key(3)), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(SharedSpectrumCacheTest, QuotaEvictsOwnEntriesNeverNeighbours) {
  const std::size_t bins = 64;
  const std::size_t bytes = bins * sizeof(fft::Complex) + 64;
  stitch::SharedSpectrumCache cache;  // ample global capacity

  // Tenant "a" fills two slots under a two-slot quota; the third insert
  // must evict a's own LRU entry, leaving tenant "b" untouched.
  const std::size_t quota = 2 * bytes + bytes / 2;
  cache.insert_spectrum(spectrum_key(10), make_spectrum(bins, 1.0), "b", 0);
  cache.insert_spectrum(spectrum_key(1), make_spectrum(bins, 1.0), "a", quota);
  cache.insert_spectrum(spectrum_key(2), make_spectrum(bins, 2.0), "a", quota);
  cache.insert_spectrum(spectrum_key(3), make_spectrum(bins, 3.0), "a", quota);

  EXPECT_NE(cache.find_spectrum(spectrum_key(10)), nullptr);  // b survives
  EXPECT_EQ(cache.find_spectrum(spectrum_key(1)), nullptr);   // a's LRU went
  EXPECT_NE(cache.find_spectrum(spectrum_key(2)), nullptr);
  EXPECT_NE(cache.find_spectrum(spectrum_key(3)), nullptr);
  EXPECT_LE(cache.tenant_resident_bytes("a"), quota);
  EXPECT_EQ(cache.tenant_resident_bytes("b"), bytes);

  // An entry that can never fit the quota is refused, and the caller keeps
  // its private copy.
  auto huge = make_spectrum(bins * 8, 9.0);
  auto returned = cache.insert_spectrum(spectrum_key(4), huge, "a", quota);
  EXPECT_EQ(returned, huge);
  EXPECT_EQ(cache.find_spectrum(spectrum_key(4)), nullptr);
  EXPECT_GE(cache.stats().quota_refusals, 1u);
}

TEST(SharedSpectrumCacheTest, PairMemoization) {
  stitch::SharedSpectrumCache cache;
  stitch::PairKey key;
  key.digest_reference = 11;
  key.digest_moved = 22;
  key.height = 8;
  key.width = 8;

  stitch::Translation out;
  EXPECT_FALSE(cache.find_pair(key, &out));
  stitch::Translation value;
  value.x = 3;
  value.y = -2;
  value.correlation = 0.5;
  cache.insert_pair(key, value, "default", 0);
  ASSERT_TRUE(cache.find_pair(key, &out));
  EXPECT_TRUE(out == value);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.pair_hits, 1u);
  EXPECT_EQ(stats.pair_misses, 1u);
}

// ---------------------------------------------------------------------------
// TransformCache::release after a failed compute (regression)
// ---------------------------------------------------------------------------

TEST(TransformCacheReleaseTest, TolerantAfterFailedCompute) {
  const auto grid = testing::small_grid();
  const img::TilePos poison{1, 1};
  const testing::FailingProvider provider(grid, poison);
  const auto pipeline = stitch::make_fft_pipeline(
      grid.tile_height, grid.tile_width, fft::Rigor::kEstimate, false);
  stitch::OpCountsAtomic counts;

  const std::int64_t resident_before =
      metrics::wellknown::transform_cache_resident_bytes().value();
  std::vector<std::size_t> degrees;
  for (std::size_t i = 0; i < grid.layout.tile_count(); ++i) {
    degrees.push_back(
        stitch::TransformCache::pair_degree(grid.layout, grid.layout.pos_of(i)));
  }
  {
    stitch::TransformCache cache(provider, pipeline, &counts, degrees);
    EXPECT_THROW(cache.transform(poison), IoError);
    // Every consumer of the poisoned tile still releases its reference,
    // exactly as the quarantine path does after a failed pair. This used
    // to assert on state == kReady and die.
    const std::size_t degree =
        stitch::TransformCache::pair_degree(grid.layout, poison);
    for (std::size_t i = 0; i < degree; ++i) cache.release(poison);
    EXPECT_EQ(cache.live_transforms(), 0u);

    // A healthy neighbour is unaffected.
    EXPECT_NE(cache.transform({0, 0}), nullptr);
    const std::size_t healthy_degree =
        stitch::TransformCache::pair_degree(grid.layout, {0, 0});
    for (std::size_t i = 0; i < healthy_degree; ++i) cache.release({0, 0});
  }
  // The entry never committed, so it must never have been charged to the
  // resident-bytes gauge (release used to be the only decrement point).
  EXPECT_EQ(metrics::wellknown::transform_cache_resident_bytes().value(),
            resident_before);
}

// ---------------------------------------------------------------------------
// Scheduler headroom clamp (regression)
// ---------------------------------------------------------------------------

class TenantDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("hs_tenant_" + std::to_string(::getpid()) + "_" + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TenantDirTest, OversizedRecoveredJobDoesNotUnderflowHeadroom) {
  const auto big_grid = testing::make_grid(4, 8);
  const stitch::MemoryTileProvider big_mem(&big_grid.tiles, big_grid.layout);
  const testing::SlowProvider big_slow(&big_mem, 5);
  const auto small = testing::small_grid();
  const stitch::MemoryTileProvider small_mem(&small.tiles, small.layout);

  stitch::StitchRequest big_request;
  big_request.backend = stitch::Backend::kMtCpu;
  big_request.provider = &big_slow;
  big_request.options = cpu_options();
  const serve::JobFootprint big_fp =
      serve::predict_footprint(big_request, sched::CostModel::paper_machine());

  stitch::StitchRequest small_request = big_request;
  small_request.provider = &small_mem;
  const serve::JobFootprint small_fp = serve::predict_footprint(
      small_request, sched::CostModel::paper_machine());

  // Budget admits the small job but NOT the recovered big one; the premise
  // of the regression is big > budget >= small.
  ASSERT_LT(small_fp.bytes, big_fp.bytes);
  const std::size_t budget = big_fp.bytes - 1;
  ASSERT_GE(budget, small_fp.bytes);

  // Journal an accepted oversized job, as a crashed service with a larger
  // budget would have left behind.
  serve::JournalConfig journal_config;
  journal_config.dir = dir_ + "/wal";
  journal_config.fsync = serve::FsyncPolicy::kNever;
  {
    serve::Journal journal(journal_config);
    journal.replay();
    journal.append_submitted(journal.next_job_id(), "big",
                             stitch::serialize_request(big_request), "", 0);
  }

  serve::ServiceConfig config;
  config.workers = 2;
  config.memory_budget_bytes = budget;
  config.journal = journal_config;
  config.provider_resolver =
      [&](const std::string& name) -> const stitch::TileProvider* {
    return name == "big" ? static_cast<const stitch::TileProvider*>(&big_slow)
                         : nullptr;
  };
  serve::StitchService service(config);
  ASSERT_EQ(service.recovered_jobs().size(), 1u);
  serve::JobHandle big = service.recovered_jobs()[0];

  // The oversized resubmit is admitted (alone) and drives memory_in_use_
  // above the budget while it runs.
  ASSERT_TRUE(wait_for(
      [&] { return big.state() == serve::JobState::kRunning; }, 5000));
  EXPECT_GT(service.memory_in_use_bytes(), service.memory_budget_bytes());

  serve::StitchJob tiny;
  tiny.name = "tiny";
  tiny.backend = stitch::Backend::kMtCpu;
  tiny.provider = &small_mem;
  tiny.options = cpu_options();
  serve::JobHandle tiny_handle = service.submit(tiny);

  // With the unsigned subtraction the headroom wrapped to ~SIZE_MAX here
  // and the tiny job was admitted on top of the oversized one. The clamp
  // keeps it queued until the budget drains back.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(tiny_handle.state(), serve::JobState::kQueued);

  big.wait();
  tiny_handle.wait();
  EXPECT_EQ(tiny_handle.state(), serve::JobState::kDone);
}

// ---------------------------------------------------------------------------
// Cross-job dedup through the shared cache
// ---------------------------------------------------------------------------

TEST(SharedServiceTest, ResubmitHitsWarmCacheBitIdentically) {
  const auto grid = testing::make_grid(3, 4);
  const stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  serve::ServiceConfig config;
  config.workers = 1;
  config.shared_cache_bytes = 64ull << 20;
  serve::StitchService service(config);
  ASSERT_NE(service.shared_cache(), nullptr);

  serve::StitchJob job;
  job.name = "a";
  job.backend = stitch::Backend::kMtCpu;
  job.provider = &provider;
  job.options = cpu_options();

  const stitch::StitchResult first = service.submit(job).wait();
  job.name = "b";
  const stitch::StitchResult second = service.submit(job).wait();

  // The resubmit replays every pair from the shared store: no transforms,
  // no inverse FFTs, identical table.
  EXPECT_EQ(second.ops.forward_ffts, 0u);
  EXPECT_EQ(second.ops.inverse_ffts, 0u);
  EXPECT_TRUE(testing::tables_identical(first.table, second.table));

  const auto stats = service.shared_cache()->stats();
  EXPECT_GE(stats.pair_hits, grid.layout.pair_count());
  EXPECT_GE(stats.spectrum_misses, 1u);

  // And the shared path changes nothing vs calling stitch() directly.
  stitch::StitchRequest direct;
  direct.backend = stitch::Backend::kMtCpu;
  direct.provider = &provider;
  direct.options = cpu_options();
  const stitch::StitchResult unshared = stitch::stitch(direct);
  EXPECT_TRUE(testing::tables_identical(unshared.table, first.table));
}

TEST(SharedServiceTest, AllBackendsBitIdenticalSharedVsUnshared) {
  const auto grid = testing::make_grid(3, 4);
  const stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  serve::ServiceConfig config;
  config.workers = 1;
  config.shared_cache_bytes = 64ull << 20;
  serve::StitchService service(config);

  for (const stitch::Backend backend : stitch::kAllBackends) {
    stitch::StitchRequest direct;
    direct.backend = backend;
    direct.provider = &provider;
    direct.options = cpu_options();
    const stitch::StitchResult unshared = stitch::stitch(direct);

    serve::StitchJob job;
    job.name = "cold-" + stitch::backend_name(backend);
    job.backend = backend;
    job.provider = &provider;
    job.options = cpu_options();
    const stitch::StitchResult cold = service.submit(job).wait();
    job.name = "warm-" + stitch::backend_name(backend);
    const stitch::StitchResult warm = service.submit(job).wait();

    EXPECT_TRUE(testing::tables_identical(unshared.table, cold.table))
        << stitch::backend_name(backend) << " cold";
    EXPECT_TRUE(testing::tables_identical(unshared.table, warm.table))
        << stitch::backend_name(backend) << " warm";
  }
}

// ---------------------------------------------------------------------------
// Weighted-fair admission and tenant quotas
// ---------------------------------------------------------------------------

TEST(TenantSchedulingTest, WeightedFairAdmissionOrder) {
  const auto grid = testing::small_grid();
  const stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const testing::SlowProvider blocker_provider(&provider, 10);

  serve::ServiceConfig config;
  config.workers = 1;
  serve::StitchService service(config);

  // Hold the single worker so every contender queues before the first pick.
  serve::StitchJob blocker;
  blocker.name = "blocker";
  blocker.backend = stitch::Backend::kMtCpu;
  blocker.provider = &blocker_provider;
  blocker.options = cpu_options();
  serve::JobHandle blocker_handle = service.submit(blocker);
  ASSERT_TRUE(wait_for(
      [&] { return blocker_handle.state() == serve::JobState::kRunning; },
      5000));

  std::vector<serve::JobHandle> heavy, light;
  for (int i = 0; i < 4; ++i) {
    serve::StitchJob job;
    job.name = "heavy" + std::to_string(i);
    job.backend = stitch::Backend::kMtCpu;
    job.provider = &provider;
    job.options = cpu_options();
    job.tenant = "heavy";
    job.tenant_weight = 3.0;
    heavy.push_back(service.submit(job));
  }
  for (int i = 0; i < 4; ++i) {
    serve::StitchJob job;
    job.name = "light" + std::to_string(i);
    job.backend = stitch::Backend::kMtCpu;
    job.provider = &provider;
    job.options = cpu_options();
    job.tenant = "light";
    job.tenant_weight = 1.0;
    light.push_back(service.submit(job));
  }
  service.wait_idle();

  struct Start {
    double start_us;
    bool is_heavy;
  };
  std::vector<Start> starts;
  for (const auto& h : heavy) starts.push_back({h.timing().start_us, true});
  for (const auto& h : light) starts.push_back({h.timing().start_us, false});
  std::sort(starts.begin(), starts.end(),
            [](const Start& a, const Start& b) {
              return a.start_us < b.start_us;
            });
  // With weights 3:1 and identical costs the first four admissions split
  // 3 heavy / 1 light — virtual time advances a third as fast for the
  // heavy tenant.
  const int heavy_in_first_4 =
      static_cast<int>(std::count_if(starts.begin(), starts.begin() + 4,
                                     [](const Start& s) { return s.is_heavy; }));
  EXPECT_EQ(heavy_in_first_4, 3);

  const auto tenants = service.tenant_metrics();
  ASSERT_GE(tenants.size(), 2u);
  for (const auto& t : tenants) {
    if (t.tenant == "heavy" || t.tenant == "light") {
      EXPECT_EQ(t.admitted, 4u);
      EXPECT_EQ(t.memory_in_use_bytes, 0u);
    }
  }
}

TEST(TenantSchedulingTest, QuotaBoundsConcurrentAdmission) {
  const auto grid = testing::small_grid();
  const stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const testing::SlowProvider slow(&provider, 10);

  stitch::StitchRequest probe;
  probe.backend = stitch::Backend::kMtCpu;
  probe.provider = &slow;
  probe.options = cpu_options();
  const serve::JobFootprint fp =
      serve::predict_footprint(probe, sched::CostModel::paper_machine());

  serve::ServiceConfig config;
  config.workers = 2;
  serve::StitchService service(config);

  // Quota fits one running job, not two.
  const std::size_t quota = fp.bytes + fp.bytes / 2;
  std::vector<serve::JobHandle> handles;
  for (int i = 0; i < 2; ++i) {
    serve::StitchJob job;
    job.name = "quota" + std::to_string(i);
    job.backend = stitch::Backend::kMtCpu;
    job.provider = &slow;
    job.options = cpu_options();
    job.tenant = "capped";
    job.tenant_quota_bytes = quota;
    handles.push_back(service.submit(job));
  }

  std::size_t max_running = 0;
  while (handles[0].state() != serve::JobState::kDone ||
         handles[1].state() != serve::JobState::kDone) {
    max_running = std::max(max_running, service.running_count());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(max_running, 1u);

  const auto tenants = service.tenant_metrics();
  const auto it = std::find_if(
      tenants.begin(), tenants.end(),
      [](const serve::TenantMetrics& t) { return t.tenant == "capped"; });
  ASSERT_NE(it, tenants.end());
  EXPECT_EQ(it->admitted, 2u);
  EXPECT_GE(it->quota_deferrals, 1u);
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

TEST(TenantRequestTest, TenantFieldsRoundTripThroughSerde) {
  stitch::StitchRequest request;
  request.tenant = "acme";
  request.tenant_weight = 2.5;
  request.tenant_quota_bytes = 123456;
  const stitch::StitchRequest back =
      stitch::deserialize_request(stitch::serialize_request(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_DOUBLE_EQ(back.tenant_weight, 2.5);
  EXPECT_EQ(back.tenant_quota_bytes, 123456u);
}

TEST(TenantRequestTest, ValidateRejectsBadTenantFields) {
  const auto grid = testing::small_grid();
  const stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  stitch::StitchRequest request;
  request.backend = stitch::Backend::kMtCpu;
  request.provider = &provider;
  request.options = cpu_options();
  request.validate();  // defaults are fine

  request.tenant = "a\nb";
  EXPECT_THROW(request.validate(), InvalidArgument);
  request.tenant = "ok";
  request.tenant_weight = 0.0;
  EXPECT_THROW(request.validate(), InvalidArgument);
  request.tenant_weight = -1.0;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

}  // namespace
}  // namespace hs
