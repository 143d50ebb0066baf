// HybridScheduler suite: ResourceSet presets, knob validation, hybrid
// CPU+GPU shapes, work-stealing correctness (bit-identity under any steal
// interleaving, straggler rescue), and batched vgpu dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/stopwatch.hpp"
#include "fault/plan.hpp"
#include "metrics/wellknown.hpp"
#include "stitch/ledger.hpp"
#include "stitch/scheduler.hpp"
#include "stitch/shared_cache.hpp"
#include "stitch/stitcher.hpp"
#include "testing_providers.hpp"
#include "trace/trace.hpp"

namespace hs::stitch {
namespace {

using hs::testing::fast_options;
using hs::testing::make_grid;
using hs::testing::tables_identical;
using hs::testing::truth_accuracy;

// --- ResourceSet presets -----------------------------------------------------

TEST(ResourceSetTest, ForBackendMapsLegacyShapes) {
  StitchOptions o;
  o.threads = 3;
  o.read_threads = 2;
  o.gpu_count = 4;

  const ResourceSet naive = ResourceSet::for_backend(Backend::kNaivePairwise, o);
  EXPECT_EQ(naive.cpu_workers, 1u);
  EXPECT_FALSE(naive.use_transform_cache);
  EXPECT_EQ(naive.gpu_devices, 0u);
  EXPECT_EQ(naive.label, "naive-pairwise");

  const ResourceSet simple = ResourceSet::for_backend(Backend::kSimpleCpu, o);
  EXPECT_EQ(simple.cpu_workers, 1u);
  EXPECT_TRUE(simple.use_transform_cache);
  EXPECT_EQ(simple.prefetch_threads, 0u);

  const ResourceSet mt = ResourceSet::for_backend(Backend::kMtCpu, o);
  EXPECT_EQ(mt.cpu_workers, 3u);
  EXPECT_EQ(mt.prefetch_threads, 0u);

  const ResourceSet pipelined =
      ResourceSet::for_backend(Backend::kPipelinedCpu, o);
  EXPECT_EQ(pipelined.cpu_workers, 3u);
  EXPECT_EQ(pipelined.prefetch_threads, 2u);

  const ResourceSet sgpu = ResourceSet::for_backend(Backend::kSimpleGpu, o);
  EXPECT_EQ(sgpu.cpu_workers, 0u);
  EXPECT_EQ(sgpu.gpu_devices, 1u);
  EXPECT_TRUE(sgpu.synchronous_gpu);

  const ResourceSet pgpu = ResourceSet::for_backend(Backend::kPipelinedGpu, o);
  EXPECT_EQ(pgpu.cpu_workers, 0u);
  EXPECT_EQ(pgpu.gpu_devices, 4u);
  EXPECT_FALSE(pgpu.synchronous_gpu);
  EXPECT_EQ(pgpu.label, "pipelined-gpu");
}

TEST(ResourceSetTest, ForBackendCopiesSchedulerKnobs) {
  StitchOptions o;
  o.steal_threshold = 2;
  o.gpu_batch_pairs = 8;
  for (const Backend backend : kAllBackends) {
    const ResourceSet rs = ResourceSet::for_backend(backend, o);
    EXPECT_EQ(rs.steal_threshold, 2u) << backend_name(backend);
    EXPECT_EQ(rs.gpu_batch_pairs, 8u) << backend_name(backend);
  }
}

TEST(ResourceSetTest, DescribeSummarizesShape) {
  ResourceSet rs;
  rs.cpu_workers = 2;
  rs.prefetch_threads = 1;
  EXPECT_EQ(rs.describe(), "2 cpu + 1 prefetch");

  ResourceSet hybrid;
  hybrid.cpu_workers = 2;
  hybrid.gpu_devices = 2;
  hybrid.steal_threshold = 1;
  hybrid.gpu_batch_pairs = 4;
  EXPECT_EQ(hybrid.describe(), "2 cpu + 2 gpu (steal>1) (batch=4)");

  ResourceSet sync;
  sync.cpu_workers = 0;
  sync.gpu_devices = 1;
  sync.synchronous_gpu = true;
  EXPECT_EQ(sync.describe(), "1 gpu (sync)");
}

// --- validation --------------------------------------------------------------

TEST(SchedulerValidation, RejectsBadResourceSets) {
  const auto grid = make_grid(2, 2);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchOptions options = fast_options();

  ResourceSet none;
  none.cpu_workers = 0;
  none.gpu_devices = 0;
  EXPECT_THROW(HybridScheduler(none).run(provider, options), InvalidArgument);

  ResourceSet zero_batch;
  zero_batch.gpu_batch_pairs = 0;
  EXPECT_THROW(HybridScheduler(zero_batch).run(provider, options),
               InvalidArgument);

  ResourceSet prefetch_no_cache;
  prefetch_no_cache.prefetch_threads = 1;
  prefetch_no_cache.use_transform_cache = false;
  EXPECT_THROW(HybridScheduler(prefetch_no_cache).run(provider, options),
               InvalidArgument);

  // Prefetch warms the CPU band's cache; a shape without CPU workers has no
  // CPU band, so its prefetch threads would never run.
  ResourceSet prefetch_no_cpu;
  prefetch_no_cpu.cpu_workers = 0;
  prefetch_no_cpu.gpu_devices = 1;
  prefetch_no_cpu.prefetch_threads = 1;
  try {
    (void)HybridScheduler(prefetch_no_cpu).run(provider, options);
    ADD_FAILURE() << "prefetch threads without CPU workers accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("ResourceSet.prefetch_threads:", 0),
              0u)
        << e.what();
  }

  ResourceSet bad_sync;
  bad_sync.cpu_workers = 0;
  bad_sync.gpu_devices = 2;
  bad_sync.synchronous_gpu = true;
  EXPECT_THROW(HybridScheduler(bad_sync).run(provider, options),
               InvalidArgument);

  // Only the CPU-only naive shape runs without the transform cache.
  for (const std::size_t cpu_workers : {0ul, 2ul}) {
    ResourceSet gpu_no_cache;
    gpu_no_cache.cpu_workers = cpu_workers;
    gpu_no_cache.gpu_devices = 1;
    gpu_no_cache.use_transform_cache = false;
    EXPECT_THROW(HybridScheduler(gpu_no_cache).run(provider, options),
                 InvalidArgument)
        << cpu_workers << " cpu workers";
  }
}

TEST(SchedulerValidation, RequestRejectsBadKnobs) {
  const auto grid = make_grid(2, 2);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  StitchOptions zero_batch = fast_options();
  zero_batch.gpu_batch_pairs = 0;
  EXPECT_THROW(stitch(Backend::kSimpleCpu, provider, zero_batch),
               InvalidArgument);

  StitchOptions p2p_steal = fast_options();
  p2p_steal.use_p2p = true;
  p2p_steal.kepler_concurrent_fft = true;
  p2p_steal.steal_threshold = 1;
  EXPECT_THROW(stitch(Backend::kPipelinedGpu, provider, p2p_steal),
               InvalidArgument);
}

TEST(SchedulerValidation, ResourceSetRejectsPoolBelowGpuWorkingSet) {
  // A GPU band's copy stage (or Simple-GPU's upload) would wait on a dry
  // pool forever; stitch(ResourceSet) must reject the pool up front, with
  // the message stitch(Backend) gives.
  sim::AcquisitionParams acq;
  acq.grid_rows = 3;
  acq.grid_cols = 3;
  acq.tile_height = 32;
  acq.tile_width = 48;
  const auto grid = sim::make_synthetic_grid(acq);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.pool_buffers = 1;

  ResourceSet gpu;
  gpu.cpu_workers = 0;
  gpu.gpu_devices = 1;
  ResourceSet sync_gpu = gpu;
  sync_gpu.synchronous_gpu = true;
  ResourceSet hybrid;
  hybrid.cpu_workers = 2;
  hybrid.gpu_devices = 1;
  for (const ResourceSet& rs : {gpu, sync_gpu, hybrid}) {
    try {
      (void)stitch(rs, provider, options);
      ADD_FAILURE() << rs.describe() << ": pool of 1 accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("pool_buffers:", 0), 0u)
          << rs.describe() << ": " << e.what();
    }
  }
}

// --- hybrid shapes and steal-interleaving bit-identity -----------------------

ResourceSet hybrid_set(std::size_t steal_threshold) {
  ResourceSet rs;
  rs.cpu_workers = 2;
  rs.gpu_devices = 2;
  rs.steal_threshold = steal_threshold;
  rs.label = "hybrid";
  return rs;
}

/// Tiles the GPU bands read: each band's rows, halo row included.
std::size_t gpu_band_tiles(const img::GridLayout& layout,
                           const ResourceSet& rs) {
  std::size_t rows = 0;
  for (const RowBand& band : gpu_row_bands(layout, rs)) {
    rows += band.row_end - band.first_row();
  }
  return rows * layout.cols;
}

/// Tiles a hybrid run reads, and transforms, when every executor transforms
/// each tile it reads once: the GPU bands' tiles plus the CPU band's rows
/// and its halo row (the boundary row is transformed on both sides).
std::size_t hybrid_tiles(const img::GridLayout& layout, const ResourceSet& rs) {
  const std::size_t cpu_begin = gpu_row_bands(layout, rs).back().row_end;
  const std::size_t cpu_rows =
      cpu_begin < layout.rows ? layout.rows - cpu_begin + 1 : 0;
  return gpu_band_tiles(layout, rs) + cpu_rows * layout.cols;
}

TEST(HybridScheduling, CpuPlusGpuMatchesReferenceBitExactly) {
  for (const std::uint64_t seed : {7ull, 13ull, 29ull}) {
    const auto grid = make_grid(5, 3, seed);
    MemoryTileProvider provider(&grid.tiles, grid.layout);
    const StitchResult reference =
        stitch(Backend::kSimpleCpu, provider, fast_options());
    for (const std::size_t batch : {1ul, 4ul}) {
      ResourceSet rs = hybrid_set(1);
      rs.gpu_batch_pairs = batch;
      // Bands: gpu0 reads row 0, gpu1 rows 0-2 (halo 0), the CPU band rows
      // 2-4 (halo 2): 7 rows of 3.
      ASSERT_EQ(hybrid_tiles(grid.layout, rs), 21u);
      const StitchResult hybrid = stitch(rs, provider, fast_options());
      EXPECT_TRUE(tables_identical(reference.table, hybrid.table))
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(hybrid.backend_used, "hybrid");
      // Each executor transforms each tile it reads once, whoever steals
      // what: no tile is read or transformed twice on one side.
      EXPECT_EQ(hybrid.ops.tile_reads, 21u)
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(hybrid.ops.forward_ffts, 21u)
          << "seed " << seed << " batch " << batch;
    }
  }
}

TEST(HybridScheduling, StealInterleavingsPreserveLedgerContents) {
  // PCIAM pairs are pure, so no matter which executor wins the race for a
  // pair, the ledger must end up with the same contents as a sequential
  // reference run. Repeat to sample different steal interleavings.
  const auto grid = make_grid(4, 4, 11);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  StitchOptions ref_options = fast_options();
  PairLedger reference_ledger(grid.layout);
  ref_options.ledger = &reference_ledger;
  stitch(Backend::kSimpleCpu, provider, ref_options);
  const DisplacementTable reference = reference_ledger.snapshot();

  const std::size_t tiles = hybrid_tiles(grid.layout, hybrid_set(1));
  for (int rep = 0; rep < 5; ++rep) {
    StitchOptions options = fast_options();
    PairLedger ledger(grid.layout);
    options.ledger = &ledger;
    const StitchResult result = stitch(hybrid_set(1), provider, options);
    EXPECT_TRUE(tables_identical(reference, ledger.snapshot()))
        << "rep " << rep;
    // The work done is independent of the steal order too.
    EXPECT_EQ(result.ops.tile_reads, tiles) << "rep " << rep;
    EXPECT_EQ(result.ops.forward_ffts, tiles) << "rep " << rep;
  }
}

TEST(HybridScheduling, SharedCacheReplaysCpuBandPairs) {
  // The hybrid CPU band binds the cross-job store exactly as MT-CPU does: a
  // resubmit replays every CPU-band pair from the pair store, while the GPU
  // bands still compute their spectra on device.
  const auto grid = make_grid(5, 3, 31);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const ResourceSet rs = hybrid_set(1);
  SharedSpectrumCache shared;
  StitchOptions options = fast_options();
  options.shared_cache = &shared;

  const StitchResult first = stitch(rs, provider, options);
  const StitchResult second = stitch(rs, provider, options);
  EXPECT_TRUE(tables_identical(first.table, second.table));
  EXPECT_TRUE(tables_identical(
      stitch(Backend::kSimpleCpu, provider, fast_options()).table,
      first.table));
  EXPECT_EQ(first.ops.forward_ffts, hybrid_tiles(grid.layout, rs));
  EXPECT_EQ(second.ops.forward_ffts, gpu_band_tiles(grid.layout, rs));
  // The CPU band still reads its tiles once each, to digest them.
  EXPECT_EQ(second.ops.tile_reads, hybrid_tiles(grid.layout, rs));
}

TEST(HybridScheduling, PrefetchWarmsTheCpuBand) {
  // A hybrid shape's prefetch threads run the Pipelined-CPU reader stage
  // over the CPU band: they warm the band's cache without adding work.
  const auto grid = make_grid(5, 3, 37);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  ResourceSet rs = hybrid_set(1);
  rs.prefetch_threads = 1;
  hs::trace::Recorder recorder;
  StitchOptions options = fast_options();
  options.recorder = &recorder;

  const StitchResult hybrid = stitch(rs, provider, options);
  EXPECT_TRUE(tables_identical(
      stitch(Backend::kSimpleCpu, provider, fast_options()).table,
      hybrid.table));
  EXPECT_EQ(hybrid.ops.tile_reads, hybrid_tiles(grid.layout, rs));
  EXPECT_EQ(hybrid.ops.forward_ffts, hybrid_tiles(grid.layout, rs));
  EXPECT_GT(recorder.lane_stats("cpu.read").span_count, 0u);
}

TEST(HybridScheduling, StealDisabledKeepsLegacyBehaviorReachable) {
  // steal_threshold = 0 must still be a valid hybrid configuration (static
  // band split, no stealing) and produce the same table.
  const auto grid = make_grid(4, 3, 17);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  const StitchResult hybrid = stitch(hybrid_set(0), provider, fast_options());
  EXPECT_TRUE(tables_identical(reference.table, hybrid.table));
}

// --- batched vgpu dispatch ---------------------------------------------------

TEST(BatchedDispatch, BitIdenticalAndFewerEnqueues) {
  const auto grid = make_grid(6, 4, 19);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  // A small per-launch delay models kernel-launch overhead: it slows every
  // submitting thread, so work accumulates in the queues and grouping has
  // something to group — exactly the small-tile regime batching targets.
  auto run = [&](std::size_t batch) {
    fault::FaultPlan faults;
    faults.set_delay_us(fault::Site::kStreamExec, 200, "gpu0");
    StitchOptions options = fast_options();
    options.gpu_count = 1;
    options.gpu_batch_pairs = batch;
    options.faults = &faults;
    metrics::Counter& enqueues =
        metrics::wellknown::vgpu_stream_enqueues_total();
    const std::uint64_t before = enqueues.value();
    const StitchResult result =
        stitch(Backend::kPipelinedGpu, provider, options);
    return std::pair{result, enqueues.value() - before};
  };

  const auto [unbatched, enqueues_1] = run(1);
  const auto [batched, enqueues_8] = run(8);

  EXPECT_TRUE(tables_identical(unbatched.table, batched.table));
  EXPECT_EQ(truth_accuracy(grid, batched.table), 1.0);
  // Semantic op counts are grouping-invariant.
  EXPECT_EQ(unbatched.ops.forward_ffts, batched.ops.forward_ffts);
  EXPECT_EQ(unbatched.ops.ncc_multiplies, batched.ops.ncc_multiplies);
  EXPECT_EQ(unbatched.ops.inverse_ffts, batched.ops.inverse_ffts);
  // Grouping exists to shrink launch traffic. Under the modeled launch
  // overhead the reduction is large (the bench records >= 4x in release
  // builds); assert a conservative 2x so sanitizer builds stay stable.
  EXPECT_LT(enqueues_8 * 2, enqueues_1)
      << "batch=8 issued " << enqueues_8 << " enqueues vs " << enqueues_1
      << " at batch=1";
}

TEST(BatchedDispatch, BatchOfOneIsExactlyLegacyDispatch) {
  // gpu_batch_pairs = 1 is the paper's per-pair dispatch (SIV-B): per tile
  // one H2D copy, one forward FFT and one announcement, per pair the
  // ncc -> inverse FFT -> max_reduce sequence, each its own enqueue on its
  // stage's stream. 3x3 grid: 9 tiles x 3 + 12 pairs x 3 = 63 enqueues.
  const auto grid = make_grid(3, 3, 23);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  metrics::Counter& enqueues =
      metrics::wellknown::vgpu_stream_enqueues_total();
  hs::trace::Recorder recorder;

  StitchOptions options = fast_options();
  options.gpu_count = 1;
  options.gpu_batch_pairs = 1;
  options.recorder = &recorder;
  const std::uint64_t before = enqueues.value();
  const StitchResult result =
      stitch(Backend::kPipelinedGpu, provider, options);
  EXPECT_EQ(enqueues.value() - before, 63u);

  const bool real = options.use_real_fft;
  const std::map<std::string, std::size_t> expected = {
      {"gpu0.copy:memcpy_h2d", 9},
      {real ? "gpu0.fft:fft2d_r2c" : "gpu0.fft:fft2d", 9},
      {"gpu0.fft:announce", 9},
      {"gpu0.disp:ncc", 12},
      {real ? "gpu0.disp:ifft2d_c2r" : "gpu0.disp:ifft2d", 12},
      {"gpu0.disp:max_reduce", 12}};
  EXPECT_EQ(hs::testing::span_label_counts(recorder, "gpu0."), expected);

  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  EXPECT_TRUE(tables_identical(reference.table, result.table));
}

// --- straggler rescue --------------------------------------------------------

TEST(WorkStealing, RescuesStragglerVgpuStream) {
  // One vgpu's displacement stream is delayed per launch (the straggler); a
  // static split strands that band's pairs behind it, while stealing lets
  // the other executors drain the straggler's lane. Timing-based, so the
  // delay is scaled from the measured balanced run and the whole scenario
  // retries a few times before failing.
  const auto grid = make_grid(8, 4, 31);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  auto run = [&](std::size_t steal_threshold, std::uint64_t delay_us,
                 DisplacementTable* table_out) {
    fault::FaultPlan faults;
    if (delay_us > 0) {
      faults.set_delay_us(fault::Site::kStreamExec, delay_us, "gpu1.disp");
    }
    StitchOptions options = fast_options();
    options.faults = delay_us > 0 ? &faults : nullptr;
    ResourceSet rs = hybrid_set(steal_threshold);
    Stopwatch stopwatch;
    const StitchResult result = stitch(rs, provider, options);
    if (table_out != nullptr) *table_out = result.table;
    return stopwatch.seconds();
  };

  DisplacementTable balanced_table;
  bool ok = false;
  double t_bal = 0, t_static = 0, t_steal = 0, recovered = 0;
  for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
    t_bal = run(1, 0, &balanced_table);
    // Make the injected straggler dominate the static run: each delayed
    // launch sleeps long enough that the victim band's pairs cost several
    // balanced runtimes in total.
    const auto delay_us =
        std::max<std::uint64_t>(1500, static_cast<std::uint64_t>(
                                          t_bal * 1e6 / 20.0));
    DisplacementTable static_table, steal_table;
    t_static = run(0, delay_us, &static_table);
    t_steal = run(1, delay_us, &steal_table);

    // Correctness must hold on every attempt: stealing and the straggler
    // reorder work, never change it.
    ASSERT_TRUE(tables_identical(balanced_table, static_table));
    ASSERT_TRUE(tables_identical(balanced_table, steal_table));

    const double idle_lost = t_static - t_bal;
    recovered = idle_lost > 0 ? (t_static - t_steal) / idle_lost : 1.0;
    ok = recovered >= 0.7 && t_steal <= 1.2 * std::max(t_bal, 0.05);
  }
  EXPECT_TRUE(ok) << "balanced " << t_bal << "s, static-split " << t_static
                  << "s, stealing " << t_steal << "s, recovered "
                  << recovered * 100 << "% of idle time";
  EXPECT_EQ(truth_accuracy(grid, balanced_table), 1.0);
}

}  // namespace
}  // namespace hs::stitch
