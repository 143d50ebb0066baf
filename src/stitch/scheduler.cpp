// HybridScheduler: the one dispatch loop behind all six legacy backends
// (see scheduler.hpp for the design rationale). Layout of this file:
//
//   WorkPool            lanes of pair tasks + the claim/steal protocol
//   run_cpu             CPU-only shapes (naive, simple-, mt-, pipelined-cpu)
//   run_gpu_sync        the synchronous single-stream Simple-GPU shape
//   run_gpu_async       pipelined GPU shapes, incl. hybrid CPU+GPU bands,
//                       stolen-pair execution, and batched dispatch
//   ResourceSet / gpu_row_bands / HybridScheduler / stitch()
#include "stitch/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_util.hpp"
#include "metrics/wellknown.hpp"
#include "pipeline/pipeline.hpp"
#include "stitch/ccf.hpp"
#include "stitch/ledger.hpp"
#include "stitch/pciam.hpp"
#include "stitch/transform_cache.hpp"
#include "trace/trace.hpp"
#include "vgpu/buffer_pool.hpp"
#include "vgpu/kernels.hpp"
#include "vgpu/stream.hpp"
#include "vgpu/vfft.hpp"

namespace hs::stitch {

namespace {

// ---------------------------------------------------------------------------
// Work pool: per-executor lanes of pair tasks + the claim/steal protocol.
// ---------------------------------------------------------------------------

/// The scheduler's unit of work: one PCIAM pair. Pure — any executor
/// computes the bit-identical Translation — which is what makes claiming
/// and stealing reorder-safe.
struct PairTask {
  img::TilePos reference;
  img::TilePos moved;
  bool is_west = false;
};

class WorkPool {
 public:
  enum class Kind { kCpu, kGpu };

  struct Claim {
    std::vector<PairTask> tasks;
    bool stolen = false;
    std::size_t victim = 0;  // lane index, valid when stolen
  };

  WorkPool(std::size_t steal_threshold, hs::trace::Recorder* recorder)
      : steal_threshold_(steal_threshold),
        recorder_(recorder),
        metric_batch_(metrics::wellknown::sched_batch_size()),
        steal_cpu_from_gpu_(
            metrics::wellknown::sched_steals_total("cpu_from_gpu")),
        steal_gpu_from_cpu_(
            metrics::wellknown::sched_steals_total("gpu_from_cpu")),
        steal_gpu_from_gpu_(
            metrics::wellknown::sched_steals_total("gpu_from_gpu")) {}

  /// Lanes must all be added before any push/claim traffic.
  std::size_t add_lane(std::string name, Kind kind) {
    auto lane = std::make_unique<Lane>();
    lane->name = std::move(name);
    lane->kind = kind;
    lane->queue.instrument("sched." + lane->name);
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
  }

  bool push(std::size_t lane, PairTask task) {
    return lanes_[lane]->queue.push(std::move(task));
  }
  void close(std::size_t lane) { lanes_[lane]->queue.close(); }
  void close_all() {
    for (auto& lane : lanes_) lane->queue.close();
  }

  /// Claims up to `max_n` tasks for the executor owning `lane_index`.
  /// Returns own-lane tasks in lane order (up to max_n per round), a single
  /// stolen task when the own lane is dry and a victim is raidable, or an
  /// empty claim once every lane is drained (the executor's exit signal).
  Claim claim(std::size_t lane_index, std::size_t max_n) {
    Lane& own = *lanes_[lane_index];
    Claim claim;
    for (;;) {
      while (claim.tasks.size() < max_n) {
        auto task = own.queue.try_pop();
        if (!task) break;
        claim.tasks.push_back(std::move(*task));
      }
      // Batch formation window: grouped dispatchers (max_n > 1) consume
      // pairs as fast as bookkeeping announces them, so an instant launch
      // would mostly issue singleton batches. Hold a partial batch for
      // bounded timed pops while the producer is still running — the wait
      // is amortized against the per-launch overhead batching exists to
      // avoid; a timed-out pop means the producer stalled, so dispatch
      // what we have rather than add latency.
      while (!claim.tasks.empty() && claim.tasks.size() < max_n) {
        auto task = own.queue.pop_for(std::chrono::microseconds(500));
        if (!task) break;
        claim.tasks.push_back(std::move(*task));
      }
      if (!claim.tasks.empty()) {
        metric_batch_.observe(claim.tasks.size());
        return claim;
      }
      if (steal_threshold_ == 0 || lanes_.size() == 1) {
        // Stealing disabled (or nobody to steal from): legacy blocking
        // consumption of the own lane.
        auto task = own.queue.pop();
        if (!task) return claim;  // closed and drained: executor done
        claim.tasks.push_back(std::move(*task));
        continue;  // top up toward max_n without blocking
      }
      // Steal scan: raid the deepest lane still above its floor. An OPEN
      // lane's floor is the hysteresis threshold (its owner keeps
      // batch-sized chunks of its own work); a CLOSED lane's floor is zero —
      // its producer is finished (or dead, after a cancellation), so
      // leftover depth is pure tail latency and holding the threshold
      // against it would strand that work forever.
      Lane* victim = nullptr;
      std::size_t victim_index = 0;
      std::size_t victim_depth = 0;
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (i == lane_index) continue;
        Lane& other = *lanes_[i];
        const std::size_t depth = other.queue.size();
        const std::size_t floor = other.queue.closed() ? 0 : steal_threshold_;
        if (depth > floor && depth > victim_depth) {
          victim = &other;
          victim_index = i;
          victim_depth = depth;
        }
      }
      if (victim != nullptr) {
        if (auto task = victim->queue.try_steal()) {
          note_steal(own, *victim);
          claim.tasks.push_back(std::move(*task));
          claim.stolen = true;
          claim.victim = victim_index;
          metric_batch_.observe(1);
          return claim;
        }
        continue;  // raced another thief; rescan
      }
      // Nothing stealable right now.
      bool all_drained = true;
      for (const auto& lane : lanes_) {
        if (!lane->queue.drained()) {
          all_drained = false;
          break;
        }
      }
      if (all_drained) return claim;  // empty claim: all work finished
      if (own.queue.drained()) {
        // Own lane finished but another lane's producer is still running;
        // wait for its depth to cross the steal floor (or for global drain).
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      if (auto task = own.queue.pop_for(std::chrono::milliseconds(1))) {
        claim.tasks.push_back(std::move(*task));
      }
    }
  }

 private:
  struct Lane {
    std::string name;
    Kind kind = Kind::kCpu;
    pipe::BoundedQueue<PairTask> queue;
  };

  void note_steal(const Lane& thief, const Lane& victim) {
    if (thief.kind == Kind::kCpu) {
      // The CPU executors share one lane, so a CPU thief's victim is a GPU.
      steal_cpu_from_gpu_.add();
    } else if (victim.kind == Kind::kCpu) {
      steal_gpu_from_cpu_.add();
    } else {
      steal_gpu_from_gpu_.add();
    }
    if (recorder_ != nullptr) {
      const std::uint64_t t = recorder_->now_us();
      recorder_->record("sched", "steal " + thief.name + "<-" + victim.name,
                        t, t);
    }
  }

  const std::size_t steal_threshold_;
  hs::trace::Recorder* recorder_;
  metrics::Histogram& metric_batch_;
  metrics::Counter& steal_cpu_from_gpu_;
  metrics::Counter& steal_gpu_from_cpu_;
  metrics::Counter& steal_gpu_from_gpu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// All remaining pairs in the traversal's closure order: visiting a tile
/// closes its west then north pair — the order every sequential backend
/// has always used, so a single lane replayed by one executor reproduces
/// the legacy pair sequence exactly.
std::vector<PairTask> pairs_in_closure_order(const img::GridLayout& layout,
                                             Traversal traversal,
                                             const WarmFilter& warm) {
  std::vector<PairTask> pairs;
  for (const img::TilePos pos : traversal_order(layout, traversal)) {
    if (layout.has_west(pos) && !warm.skip_west(pos)) {
      pairs.push_back(
          PairTask{img::TilePos{pos.row, pos.col - 1}, pos, /*is_west=*/true});
    }
    if (layout.has_north(pos) && !warm.skip_north(pos)) {
      pairs.push_back(PairTask{img::TilePos{pos.row - 1, pos.col}, pos,
                               /*is_west=*/false});
    }
  }
  return pairs;
}

/// Records one finished pair: its displacement-table slot, then the ledger
/// and progress hooks.
void record_pair(DisplacementTable& table, const StitchOptions& options,
                 img::TilePos moved, bool is_west, const Translation& t) {
  (is_west ? table.west_of(moved) : table.north_of(moved)) = t;
  note_pair_result(options, moved, is_west, t);
}

// ---------------------------------------------------------------------------
// CPU-only shapes: naive (no cache), simple-cpu (1 worker, inline),
// mt-cpu (N workers), pipelined-cpu (N workers + prefetch threads).
// ---------------------------------------------------------------------------

StitchResult run_cpu(const ResourceSet& rs, const TileProvider& provider,
                     const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const WarmFilter warm(options.warm_start);
  StitchResult result(layout);
  OpCountsAtomic counts;

  const FftPipeline fftp =
      make_fft_pipeline(provider.tile_height(), provider.tile_width(),
                        options.rigor, options.use_real_fft);

  std::unique_ptr<TransformCache> cache;
  if (rs.use_transform_cache) {
    SharedCacheBinding shared;
    shared.cache = options.shared_cache;
    shared.tenant =
        options.shared_tenant.empty() ? "default" : options.shared_tenant;
    shared.tenant_quota_bytes = options.shared_tenant_quota_bytes;
    shared.spill = options.spill;
    cache = std::make_unique<TransformCache>(provider, fftp, &counts, warm,
                                             std::move(shared));
  }
  // The naive shape deliberately skips the cross-job store too: its whole
  // point is the no-reuse baseline. The GPU shapes compute spectra on
  // device and never touch the host TransformCache, so they run unshared.
  SharedSpectrumCache* shared_store =
      cache != nullptr ? cache->shared().cache : nullptr;
  const common::SimdTier shared_tier = common::active_tier();
  metrics::Histogram& pair_latency =
      metrics::wellknown::pair_latency_us(rs.label);

  WorkPool work(rs.steal_threshold, options.recorder);
  const std::size_t lane = work.add_lane("cpu", WorkPool::Kind::kCpu);
  for (const PairTask& task :
       pairs_in_closure_order(layout, options.traversal, warm)) {
    work.push(lane, task);
  }
  work.close(lane);

  auto process_pair = [&](const PairTask& task, PciamScratch& scratch) {
    HS_METRIC_TIMER(pair_latency);
    throw_if_cancelled(options);
    Translation t;
    if (cache != nullptr) {
      if (shared_store != nullptr) {
        // Cross-job memoization: a pair whose tile contents and PCIAM
        // parameters match an earlier job replays the cached displacement
        // without touching the FFT. PCIAM is a pure function of tile bytes
        // and parameters, so the replayed Translation is bit-identical to a
        // recomputation. On a hit the tiles are released without ever
        // computing — release() tolerates never-computed entries.
        const PairKey key{
            cache->digest(task.reference),
            cache->digest(task.moved),
            static_cast<std::uint32_t>(fftp.height),
            static_cast<std::uint32_t>(fftp.width),
            fftp.real_fft,
            shared_tier,
            static_cast<std::uint32_t>(options.peak_candidates),
            options.min_overlap_px};
        if (shared_store->find_pair(key, &t)) {
          cache->release(task.reference);
          cache->release(task.moved);
        } else {
          const fft::Complex* fft_ref = cache->transform(task.reference);
          const fft::Complex* fft_mov = cache->transform(task.moved);
          t = pciam_from_spectra(
              fft_ref, fft_mov, cache->tile(task.reference),
              cache->tile(task.moved), fftp, scratch, &counts,
              options.peak_candidates, options.min_overlap_px);
          cache->release(task.reference);
          cache->release(task.moved);
          shared_store->insert_pair(key, t, cache->shared().tenant,
                                    cache->shared().tenant_quota_bytes,
                                    cache->shared().spill);
        }
      } else {
        const fft::Complex* fft_ref = cache->transform(task.reference);
        const fft::Complex* fft_mov = cache->transform(task.moved);
        t = pciam_from_spectra(
            fft_ref, fft_mov, cache->tile(task.reference),
            cache->tile(task.moved), fftp, scratch, &counts,
            options.peak_candidates, options.min_overlap_px);
        cache->release(task.reference);
        cache->release(task.moved);
      }
    } else {
      // Naive (Fiji-style) shape: both tiles re-read and re-transformed for
      // every pair, no reuse.
      const img::ImageU16 a = provider.load(task.reference);
      const img::ImageU16 b = provider.load(task.moved);
      counts.bump(counts.tile_reads, 2);
      t = pciam_full(a, b, fftp, scratch, &counts, options.peak_candidates,
                     options.min_overlap_px);
    }
    record_pair(result.table, options, task.moved, task.is_west, t);
  };

  if (rs.cpu_workers <= 1 && rs.prefetch_threads == 0) {
    // Sequential shapes run inline on the caller thread, preserving the
    // exact legacy pair order — and with it the traversal's transform-memory
    // profile (chained-diagonal keeps at most ~min(n, m)+1 transforms live).
    metrics::Gauge& busy = metrics::wellknown::sched_executor_busy("cpu0");
    PciamScratch scratch;
    for (;;) {
      WorkPool::Claim claim = work.claim(lane, 1);
      if (claim.tasks.empty()) break;
      busy.set(1);
      for (const PairTask& task : claim.tasks) process_pair(task, scratch);
      busy.set(0);
    }
  } else {
    // Concurrent shapes: a worker stage claiming from the shared lane, plus
    // an optional prefetch stage (the Pipelined-CPU reader) warming the
    // cache ahead of the workers under a fixed in-flight budget.
    const std::size_t slots =
        options.pool_buffers > 0
            ? options.pool_buffers
            : traversal_working_set(layout, options.traversal) + 4;
    std::vector<img::TilePos> prefetch_list;
    if (rs.prefetch_threads > 0) {
      // Tiles whose every pair a warm start settled have degree 0: they are
      // neither read nor transformed.
      for (const img::TilePos pos :
           traversal_order(layout, options.traversal)) {
        if (warm.degree(layout, pos) > 0) prefetch_list.push_back(pos);
      }
    }
    std::atomic<std::size_t> next_prefetch{0};
    std::atomic<std::size_t> worker_ids{0};
    hs::trace::Recorder* recorder = options.recorder;

    pipe::Pipeline pipeline;
    pipeline.on_cancel([&work] { work.close_all(); });
    if (rs.prefetch_threads > 0) {
      pipeline.add_stage("prefetch", rs.prefetch_threads, [&] {
        for (;;) {
          throw_if_cancelled(options);
          const std::size_t i =
              next_prefetch.fetch_add(1, std::memory_order_relaxed);
          if (i >= prefetch_list.size() || pipeline.cancelled()) return;
          // Back-pressure: a prefetcher running far ahead of the workers
          // would pin the whole grid in memory; cap live transforms at the
          // CPU "pool" size instead (the SlotLimiter analogue).
          while (cache->live_transforms() >= slots) {
            throw_if_cancelled(options);
            if (pipeline.cancelled()) return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (recorder != nullptr) {
            auto span = recorder->scoped("cpu.read", "prefetch");
            cache->prefetch(prefetch_list[i]);
          } else {
            cache->prefetch(prefetch_list[i]);
          }
        }
      });
    }
    pipeline.add_stage(
        "workers", std::max<std::size_t>(1, rs.cpu_workers), [&] {
          const std::size_t id =
              worker_ids.fetch_add(1, std::memory_order_relaxed);
          set_current_thread_name("sched.cpu" + std::to_string(id));
          metrics::Gauge& busy = metrics::wellknown::sched_executor_busy(
              "cpu" + std::to_string(id));
          PciamScratch scratch;
          for (;;) {
            WorkPool::Claim claim = work.claim(lane, 1);
            if (claim.tasks.empty()) break;
            busy.set(1);
            for (const PairTask& task : claim.tasks) {
              process_pair(task, scratch);
            }
            busy.set(0);
          }
        });
    pipeline.run();
  }

  result.peak_live_transforms =
      cache != nullptr ? cache->peak_live_transforms()
                       : (layout.pair_count() > 0 ? 2 : 0);
  result.ops = counts.snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// Device transforms shared by both GPU shapes.
// ---------------------------------------------------------------------------

/// One device's PCIAM transforms in the run's FFT mode: complex forward and
/// inverse, or the half-spectrum padded r2c forward and c2r inverse. Each
/// call is one device FFT kernel through the vgpu VFft plans, which apply
/// the device's Fermi/Kepler serialization rule.
class DeviceFfts {
 public:
  DeviceFfts(vgpu::Device& device, std::size_t h, std::size_t w,
             bool real_fft, fft::Rigor rigor) {
    if (real_fft) {
      r2c_.emplace(device, h, w, rigor);
      c2r_.emplace(device, h, w, rigor);
    } else {
      forward_.emplace(device, h, w, fft::Direction::kForward, rigor);
      inverse_.emplace(device, h, w, fft::Direction::kInverse, rigor);
    }
  }
  // Stream commands hold this object's address.
  DeviceFfts(const DeviceFfts&) = delete;
  DeviceFfts& operator=(const DeviceFfts&) = delete;

  /// Staged tile -> spectrum, in place.
  void forward(fft::Complex* data) const {
    if (r2c_) {
      r2c_->execute_inplace_padded(data);
    } else {
      forward_->execute_inplace(data);
    }
  }
  /// NCC product -> correlation surface, in place.
  void inverse(fft::Complex* data) const {
    if (c2r_) {
      c2r_->execute_inplace_half(data);
    } else {
      inverse_->execute_inplace(data);
    }
  }
  /// Span labels of a command running one transform.
  const char* forward_label() const { return r2c_ ? "fft2d_r2c" : "fft2d"; }
  const char* inverse_label() const { return c2r_ ? "ifft2d_c2r" : "ifft2d"; }

 private:
  std::optional<vgpu::VFftPlan2d> forward_;
  std::optional<vgpu::VFftPlan2d> inverse_;
  std::optional<vgpu::VFftPlanR2c2d> r2c_;
  std::optional<vgpu::VFftPlanC2r2d> c2r_;
};

// ---------------------------------------------------------------------------
// Synchronous single-stream GPU shape (the paper's Simple-GPU): one caller
// thread drives one virtual GPU through a single default stream, waiting
// after every command — the pathology profiled in the paper's Fig 7.
// ---------------------------------------------------------------------------

StitchResult run_gpu_sync(const ResourceSet& rs, const TileProvider& provider,
                          const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const WarmFilter warm(options.warm_start);
  StitchResult result(layout);
  OpCountsAtomic counts;

  const std::size_t h = provider.tile_height();
  const std::size_t w = provider.tile_width();
  const std::size_t count = h * w;
  const bool real_fft = options.use_real_fft;
  // Pooled buffers hold spectrum bins: the half-spectrum path shrinks every
  // device buffer (and thus the pool footprint) to h*(w/2+1) bins.
  const std::size_t bins = real_fft ? h * (w / 2 + 1) : count;
  const std::size_t buffer_bytes = bins * sizeof(fft::Complex);

  vgpu::DeviceConfig config;
  config.memory_bytes = options.gpu_memory_bytes;
  config.recorder = options.recorder;
  config.trace_prefix = "gpu0";
  config.faults = options.faults;
  config.cancel = options.cancel;
  vgpu::Device device(config);
  vgpu::Stream stream(device, "default");
  const DeviceFfts ffts(device, h, w, real_fft, options.rigor);

  // Pool sizing (working set + NCC buffer) is enforced up front by
  // StitchRequest::validate().
  const std::size_t pool_size =
      options.pool_buffers > 0
          ? options.pool_buffers
          : traversal_working_set(layout, options.traversal) + 4;
  vgpu::BufferPool pool(device, pool_size, buffer_bytes);
  const std::size_t peaks_k = std::max<std::size_t>(1, options.peak_candidates);
  vgpu::DeviceBuffer reduce_out =
      device.alloc(peaks_k * sizeof(vgpu::MaxAbsResult));

  // Per-tile device transform + host tile, reference counted.
  struct TileState {
    vgpu::PooledBuffer transform;
    img::ImageU16 tile;
    std::size_t refs = 0;
  };
  std::map<std::size_t, TileState> states;
  std::size_t live = 0, peak = 0;

  std::vector<fft::Complex> staging(bins);
  auto ensure_tile = [&](img::TilePos pos) -> TileState& {
    const std::size_t index = layout.index_of(pos);
    auto it = states.find(index);
    if (it != states.end()) return it->second;

    TileState state;
    state.refs = warm.degree(layout, pos);
    state.tile = provider.load(pos);
    counts.bump(counts.tile_reads);
    // Synchronous H2D copy (the Simple-GPU pathology): convert on the host,
    // copy, wait. The real-FFT path stages the padded in-place r2c layout.
    if (real_fft) {
      vgpu::k_u16_to_real_padded(state.tile.data(), staging.data(), h, w);
    } else {
      vgpu::k_u16_to_complex(state.tile.data(), staging.data(), count);
    }
    state.transform = pool.acquire();
    stream.enqueue("memcpy_h2d", [&staging, dst = state.transform.as<void>(),
                                  buffer_bytes] {
      std::memcpy(dst, staging.data(), buffer_bytes);
    });
    stream.synchronize();
    // FFT in place on the default stream, then wait again.
    fft::Complex* data = state.transform.as<fft::Complex>();
    stream.enqueue(ffts.forward_label(),
                   [&ffts, data] { ffts.forward(data); });
    stream.synchronize();
    counts.bump(counts.forward_ffts);
    counts.bump(counts.transform_bins, bins);

    live += 1;
    peak = std::max(peak, live);
    return states.emplace(index, std::move(state)).first->second;
  };

  auto release_tile = [&](img::TilePos pos) {
    const std::size_t index = layout.index_of(pos);
    auto it = states.find(index);
    HS_ASSERT(it != states.end() && it->second.refs > 0);
    if (--it->second.refs == 0) {
      states.erase(it);  // returns the pooled buffer
      live -= 1;
    }
  };

  metrics::Histogram& pair_latency =
      metrics::wellknown::pair_latency_us(rs.label);
  auto run_pair = [&](const PairTask& task) {
    HS_METRIC_TIMER(pair_latency);
    throw_if_cancelled(options);
    TileState& ref = ensure_tile(task.reference);
    TileState& mov = ensure_tile(task.moved);

    vgpu::PooledBuffer ncc = pool.acquire();
    const fft::Complex* fa = ref.transform.as<fft::Complex>();
    const fft::Complex* fb = mov.transform.as<fft::Complex>();
    fft::Complex* fc = ncc.as<fft::Complex>();
    // Each step synchronous on the default stream — no overlap anywhere.
    stream.enqueue("ncc", [fa, fb, fc, bins] {
      vgpu::k_ncc_half(fa, fb, fc, bins);
    });
    stream.synchronize();
    counts.bump(counts.ncc_multiplies);

    stream.enqueue(ffts.inverse_label(), [&ffts, fc] { ffts.inverse(fc); });
    stream.synchronize();
    counts.bump(counts.inverse_ffts);

    auto* reduced = reduce_out.as<vgpu::MaxAbsResult>();
    stream.enqueue("max_reduce", [fc, count, reduced, peaks_k, real_fft] {
      const auto peaks =
          real_fft ? vgpu::k_max_abs_topk_real(
                         reinterpret_cast<const double*>(fc), count, peaks_k)
                   : vgpu::k_max_abs_topk(fc, count, peaks_k);
      for (std::size_t i = 0; i < peaks.size(); ++i) reduced[i] = peaks[i];
      for (std::size_t i = peaks.size(); i < peaks_k; ++i) {
        reduced[i] = vgpu::MaxAbsResult{-1.0, 0};
      }
    });
    stream.synchronize();
    counts.bump(counts.max_reductions);

    // Only the scalar results cross back to the host.
    std::vector<vgpu::MaxAbsResult> peak_results(peaks_k);
    stream.memcpy_d2h(peak_results.data(), reduce_out,
                      peaks_k * sizeof(vgpu::MaxAbsResult));
    stream.synchronize();

    std::vector<std::size_t> indices;
    for (const auto& peak_result : peak_results) {
      if (peak_result.value >= 0.0) indices.push_back(peak_result.index);
    }
    counts.bump(counts.ccf_evaluations, 4 * indices.size());
    const Translation t = disambiguate_peaks(ref.tile, mov.tile, indices, w,
                                             options.min_overlap_px);

    release_tile(task.reference);
    release_tile(task.moved);
    record_pair(result.table, options, task.moved, task.is_west, t);
  };

  // The single "gpu0" lane seeded in closure order and claimed one task at a
  // time reproduces the legacy traversal double-loop exactly (and with only
  // one lane, steal instants cannot occur — the trace lane set stays
  // {"gpu0.default"}).
  WorkPool work(rs.steal_threshold, options.recorder);
  const std::size_t lane = work.add_lane("gpu0", WorkPool::Kind::kGpu);
  for (const PairTask& task :
       pairs_in_closure_order(layout, options.traversal, warm)) {
    work.push(lane, task);
  }
  work.close(lane);

  metrics::Gauge& busy = metrics::wellknown::sched_executor_busy("gpu0");
  for (;;) {
    WorkPool::Claim claim = work.claim(lane, 1);
    if (claim.tasks.empty()) break;
    busy.set(1);
    for (const PairTask& task : claim.tasks) run_pair(task);
    busy.set(0);
  }

  result.peak_live_transforms = peak;
  result.ops = counts.snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// Pipelined GPU shapes: per-GPU six-stage pipelines (paper SIV-B, Fig 8)
// over the shared work pool, plus the hybrid CPU band, stolen-pair
// execution, and batched dispatch.
// ---------------------------------------------------------------------------

/// Work item flowing through stages 1-3 of one GPU pipeline. A null tile
/// marks a halo position to be pulled via peer-to-peer copy instead of
/// read + transform.
struct TileWork {
  img::TilePos pos;
  std::shared_ptr<const img::ImageU16> tile;
};

/// Stage 6 input: everything the CCF threads need, self-contained.
struct CcfTask {
  std::shared_ptr<const img::ImageU16> reference;
  std::shared_ptr<const img::ImageU16> moved;
  img::TilePos moved_pos;
  bool is_west = false;
  /// Flat correlation-surface peak indices (1 by default; more with the
  /// multi-peak extension).
  std::vector<std::size_t> peak_indices;
};

/// Per-GPU tile state: device transform buffer + host tile + refcount over
/// the pairs *this pipeline* owns (plus one per exported halo transform).
struct GpuTileState {
  vgpu::PooledBuffer buffer;
  std::shared_ptr<const img::ImageU16> tile;
  std::size_t refs = 0;
  bool fft_done = false;
};

/// Cross-pipeline handoff of exported halo transforms (use_p2p mode).
class HaloExchange {
 public:
  struct Entry {
    vgpu::Event ready;                          // signals after the FFT
    const fft::Complex* transform = nullptr;    // owner's device memory
    std::shared_ptr<const img::ImageU16> tile;  // host pixels for CCF
    std::function<void()> release;              // drops the owner's ref
  };

  void publish(std::size_t tile_index, Entry entry) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.emplace(tile_index, std::move(entry));
    }
    cv_.notify_all();
  }

  /// Blocks until the entry arrives; returns an empty entry (null
  /// transform) if the exchange was shut down by pipeline cancellation.
  Entry take(std::size_t tile_index) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [&] { return shutdown_ || entries_.contains(tile_index); });
    if (!entries_.contains(tile_index)) return Entry{};
    Entry entry = std::move(entries_.at(tile_index));
    entries_.erase(tile_index);
    return entry;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, Entry> entries_;
  bool shutdown_ = false;
};

/// One GPU's execution pipeline context. Pair tasks no longer flow through
/// a private q_pairs queue — bookkeeping feeds this GPU's WorkPool lane,
/// which is what makes the pairs visible to thieves.
struct GpuPipeline {
  std::size_t id = 0;
  std::unique_ptr<vgpu::Device> device;
  std::optional<DeviceFfts> ffts;
  std::unique_ptr<vgpu::Stream> copy_stream;
  std::vector<std::unique_ptr<vgpu::Stream>> fft_streams;
  std::unique_ptr<vgpu::Stream> disp_stream;
  std::unique_ptr<vgpu::BufferPool> pool;      // forward-transform buffers
  std::unique_ptr<vgpu::BufferPool> ncc_pool;  // backward (NCC) buffers

  std::vector<img::TilePos> tiles_to_read;     // band (+ halo unless p2p)
  std::vector<PairTask> owned_pairs;
  std::unordered_set<std::size_t> halo_pull;   // p2p: pulled from gpu id-1
  std::unordered_set<std::size_t> halo_export; // p2p: published to gpu id+1

  std::mutex state_mutex;
  std::unordered_map<std::size_t, GpuTileState> states;

  // Stage 1 -> 2, bounded: the reader stalls rather than pulling the whole
  // grid into host memory ahead of the copier.
  pipe::BoundedQueue<TileWork> q_read{8};
  pipe::BoundedQueue<img::TilePos> q_fft;   // stage 2 -> 3
  pipe::BoundedQueue<img::TilePos> q_ready; // fft/p2p completion -> stage 4

  // q_ready closes when both its producers (copy stage for p2p pulls, fft
  // stage for transforms) have drained their streams.
  std::atomic<std::size_t> ready_producers{2};

  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};

  void close_ready_when_done() {
    if (ready_producers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      q_ready.close();
    }
  }

  /// Makes a tile resident: its device buffer (upload or peer copy already
  /// enqueued) and its host pixels.
  void install(std::size_t index, vgpu::PooledBuffer buffer,
               std::shared_ptr<const img::ImageU16> tile) {
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      GpuTileState& state = states.at(index);
      state.buffer = std::move(buffer);
      state.tile = std::move(tile);
    }
    const std::size_t now = live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t prev = peak.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
};

/// Drops one reference from a tile's per-pipeline state; frees the device
/// buffer and host pixels at zero. Callable from any stream worker (and,
/// with stealing, from whichever executor completed the stolen pair).
void release_tile(GpuPipeline* gpu, const img::GridLayout& layout,
                  img::TilePos pos) {
  std::lock_guard<std::mutex> lock(gpu->state_mutex);
  GpuTileState& state = gpu->states.at(layout.index_of(pos));
  HS_ASSERT(state.refs > 0);
  if (--state.refs == 0) {
    state.buffer.release();
    state.tile.reset();
    gpu->live.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// A claimed pair's inputs: both device spectra for the NCC and both host
/// tiles for the CCF.
struct ClaimedPair {
  PairTask task;
  vgpu::PairDispJob spectra;
  std::shared_ptr<const img::ImageU16> reference;
  std::shared_ptr<const img::ImageU16> moved;
};

/// Gather step of every GPU-resident pair, under the owning GPU's state
/// lock: the displacement stage's claims and a thief's stolen pair.
std::vector<ClaimedPair> gather_pairs(GpuPipeline& gpu,
                                      const img::GridLayout& layout,
                                      std::span<const PairTask> tasks) {
  std::vector<ClaimedPair> pairs;
  pairs.reserve(tasks.size());
  std::lock_guard<std::mutex> lock(gpu.state_mutex);
  for (const PairTask& task : tasks) {
    const GpuTileState& a = gpu.states.at(layout.index_of(task.reference));
    const GpuTileState& b = gpu.states.at(layout.index_of(task.moved));
    pairs.push_back(ClaimedPair{
        task,
        vgpu::PairDispJob{a.buffer.as<const fft::Complex>(),
                          b.buffer.as<const fft::Complex>()},
        a.tile, b.tile});
  }
  return pairs;
}

/// Completion step of a displaced pair, run on the displacement stream once
/// its peaks are known: hand peaks and host tiles to the CCF stage, then
/// drop the pair's references on both tiles (recycling device memory).
void complete_pair(GpuPipeline* gpu, const img::GridLayout& layout,
                   pipe::BoundedQueue<CcfTask>& q_ccf, ClaimedPair& pair,
                   const std::vector<vgpu::MaxAbsResult>& peaks) {
  CcfTask task;
  task.reference = std::move(pair.reference);
  task.moved = std::move(pair.moved);
  task.moved_pos = pair.task.moved;
  task.is_west = pair.task.is_west;
  task.peak_indices.reserve(peaks.size());
  for (const auto& peak : peaks) task.peak_indices.push_back(peak.index);
  q_ccf.push(std::move(task));
  release_tile(gpu, layout, pair.task.reference);
  release_tile(gpu, layout, pair.task.moved);
}

/// Span label of a command covering `n` tiles or pairs: a group of one keeps
/// the per-item label, so k = 1 traces exactly the paper's command stream.
std::string group_label(const char* label, std::size_t n) {
  return n == 1 ? std::string(label) : std::string(label) + "_batched";
}

StitchResult run_gpu_async(const ResourceSet& rs, const TileProvider& provider,
                           const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const WarmFilter warm(options.warm_start);
  StitchResult result(layout);
  OpCountsAtomic counts;

  const std::size_t h = provider.tile_height();
  const std::size_t w = provider.tile_width();
  const std::size_t count = h * w;
  const bool real_fft = options.use_real_fft;
  // Device buffers hold spectrum bins; half-spectrum mode halves the pools.
  const std::size_t bins = real_fft ? h * (w / 2 + 1) : count;
  const std::size_t buffer_bytes = bins * sizeof(fft::Complex);

  // Hybrid shape: CPU workers take the rows below the last GPU band.
  const std::vector<RowBand> bands = gpu_row_bands(layout, rs);
  const std::size_t gpu_count = bands.size();
  const std::size_t fft_stream_count =
      std::max<std::size_t>(1, options.fft_streams);
  const bool use_p2p = options.use_p2p && gpu_count > 1;
  const std::size_t batch_k = std::max<std::size_t>(1, rs.gpu_batch_pairs);
  // Tiles per upload/FFT group. The p2p halo protocol needs per-tile FFT
  // events, so under p2p every group is one tile.
  const std::size_t group_k = use_p2p ? 1 : batch_k;

  // Host-side FFT pipeline for pairs executed off the GPU fast path: CPU
  // band workers and stolen pairs that find the device pools dry. Built
  // lazily — plan setup is not free and pure-GPU runs never touch it.
  FftPipeline host_fftp;
  if (rs.cpu_workers > 0 || rs.steal_threshold > 0) {
    host_fftp = make_fft_pipeline(h, w, options.rigor, options.use_real_fft);
  }

  HaloExchange exchange;

  // --- Partition: contiguous row bands; a pair belongs to the band of its
  // south/east tile; boundary (north) pairs pull a halo row from above.
  std::vector<std::unique_ptr<GpuPipeline>> gpus;
  for (std::size_t g = 0; g < gpu_count; ++g) {
    auto gpu = std::make_unique<GpuPipeline>();
    gpu->id = g;
    const std::size_t row_begin = bands[g].row_begin;
    const std::size_t row_end = bands[g].row_end;
    const img::GridLayout band = bands[g].layout(layout.cols);
    const std::size_t halo_begin = bands[g].first_row();
    // Visit the band in the configured traversal order (shifted into it).
    for (const img::TilePos local : traversal_order(band, options.traversal)) {
      gpu->tiles_to_read.push_back(
          img::TilePos{halo_begin + local.row, local.col});
    }
    // Warm-settled pairs are excluded at partition time: reference counts,
    // the read plan, and the halo sets all derive from owned_pairs, so a
    // warm start shrinks every downstream structure consistently.
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < layout.cols; ++c) {
        const img::TilePos pos{r, c};
        if (layout.has_west(pos) && !warm.skip_west(pos)) {
          gpu->owned_pairs.push_back(
              PairTask{img::TilePos{r, c - 1}, pos, /*is_west=*/true});
        }
        if (layout.has_north(pos) && !warm.skip_north(pos)) {
          gpu->owned_pairs.push_back(
              PairTask{img::TilePos{r - 1, c}, pos, /*is_west=*/false});
        }
      }
    }
    if (use_p2p) {
      // A halo transform crosses devices only when the consumer's boundary
      // pair still needs computing.
      if (g > 0) {
        for (std::size_t c = 0; c < layout.cols; ++c) {
          if (warm.skip_north(img::TilePos{row_begin, c})) continue;
          gpu->halo_pull.insert(layout.index_of({row_begin - 1, c}));
        }
      }
      if (g + 1 < gpu_count) {
        for (std::size_t c = 0; c < layout.cols; ++c) {
          if (warm.skip_north(img::TilePos{row_end, c})) continue;
          gpu->halo_export.insert(layout.index_of({row_end - 1, c}));
        }
      }
    }

    vgpu::DeviceConfig config;
    config.name = "vGPU" + std::to_string(g);
    config.memory_bytes = options.gpu_memory_bytes;
    config.recorder = options.recorder;
    config.trace_prefix = "gpu" + std::to_string(g);
    config.concurrent_fft_kernels = options.kepler_concurrent_fft;
    config.faults = options.faults;
    config.cancel = options.cancel;
    gpu->device = std::make_unique<vgpu::Device>(config);
    gpu->ffts.emplace(*gpu->device, h, w, real_fft, options.rigor);
    gpu->copy_stream = std::make_unique<vgpu::Stream>(*gpu->device, "copy");
    for (std::size_t s = 0; s < fft_stream_count; ++s) {
      gpu->fft_streams.push_back(std::make_unique<vgpu::Stream>(
          *gpu->device,
          fft_stream_count == 1 ? "fft" : "fft" + std::to_string(s)));
    }
    gpu->disp_stream = std::make_unique<vgpu::Stream>(*gpu->device, "disp");

    // Per-band pool sizing (pool > band working set) is enforced up front by
    // StitchRequest::validate().
    const std::size_t pool_size =
        options.pool_buffers > 0
            ? options.pool_buffers
            : traversal_working_set(band, options.traversal) + 4;
    gpu->pool = std::make_unique<vgpu::BufferPool>(*gpu->device, pool_size,
                                                   buffer_bytes);
    // Backward-transform buffers are reserved separately so the copier can
    // never starve the displacement stage of working memory (the pool-
    // starvation deadlock a single shared pool invites).
    gpu->ncc_pool =
        std::make_unique<vgpu::BufferPool>(*gpu->device, 2, buffer_bytes);

    const std::string qprefix = "pipelined_gpu.g" + std::to_string(g) + ".";
    gpu->q_read.instrument(qprefix + "read");
    gpu->q_fft.instrument(qprefix + "fft");
    gpu->q_ready.instrument(qprefix + "ready");

    // Initialize per-pipeline reference counts (+1 per exported halo
    // transform, released by the consumer after its p2p copy), then drop
    // any tile no owned pair needs (single-tile grids, or tiles whose every
    // pair a warm start already settled).
    for (const PairTask& pair : gpu->owned_pairs) {
      for (const img::TilePos pos : {pair.reference, pair.moved}) {
        auto [it, inserted] =
            gpu->states.try_emplace(layout.index_of(pos), GpuTileState{});
        it->second.refs += 1;
      }
    }
    for (const std::size_t index : gpu->halo_export) {
      auto [it, inserted] = gpu->states.try_emplace(index, GpuTileState{});
      it->second.refs += 1;
    }
    std::erase_if(gpu->tiles_to_read, [&](const img::TilePos& pos) {
      return !gpu->states.contains(layout.index_of(pos));
    });
    gpus.push_back(std::move(gpu));
  }

  // The CPU band (empty without CPU workers): its pairs are seeded (and the
  // lane closed) up front — they have no device-side dependency chain, so
  // there is nothing to wait for, and a closed lane is raidable down to
  // zero by idle GPUs.
  std::vector<PairTask> cpu_pairs;
  for (std::size_t r = bands.back().row_end; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const img::TilePos pos{r, c};
      if (layout.has_west(pos) && !warm.skip_west(pos)) {
        cpu_pairs.push_back(
            PairTask{img::TilePos{r, c - 1}, pos, /*is_west=*/true});
      }
      if (layout.has_north(pos) && !warm.skip_north(pos)) {
        // North pairs on the band's first row reach into the last GPU
        // band; the CPU worker loads both tiles itself (naive-style), so
        // no cross-executor handoff is needed.
        cpu_pairs.push_back(
            PairTask{img::TilePos{r - 1, c}, pos, /*is_west=*/false});
      }
    }
  }

  WorkPool work(rs.steal_threshold, options.recorder);
  std::vector<std::size_t> gpu_lane(gpu_count);
  std::vector<GpuPipeline*> lane_owner;  // per lane; nullptr = CPU lane
  for (std::size_t g = 0; g < gpu_count; ++g) {
    gpu_lane[g] =
        work.add_lane("gpu" + std::to_string(g), WorkPool::Kind::kGpu);
    lane_owner.push_back(gpus[g].get());
  }
  std::size_t cpu_lane = 0;
  if (rs.cpu_workers > 0) {
    cpu_lane = work.add_lane("cpu", WorkPool::Kind::kCpu);
    lane_owner.push_back(nullptr);
    for (const PairTask& task : cpu_pairs) work.push(cpu_lane, task);
    work.close(cpu_lane);
  }

  pipe::BoundedQueue<CcfTask> q_ccf;  // stage 6, shared across GPUs
  q_ccf.instrument("pipelined_gpu.ccf");
  std::atomic<std::size_t> disp_stages_live{gpu_count};
  std::atomic<std::size_t> cpu_worker_ids{0};
  metrics::Histogram& pair_latency =
      metrics::wellknown::pair_latency_us(rs.label);

  // Host-side completion of a claimed pair — the CPU band workers' path, and
  // what a thief runs for a stolen pair. A pair stolen from a GPU lane only
  // enters that lane after bookkeeping saw both forward FFTs complete, so
  // the victim's device buffers (host-visible in the virtual-GPU model)
  // already hold both spectra: the thief reuses them via pciam_from_spectra
  // and no forward transform is repeated. A CPU-lane pair has no resident
  // state anywhere and is computed naive-style from the tile files.
  auto host_pair = [&](const PairTask& task, GpuPipeline* victim,
                       PciamScratch& scratch) {
    HS_METRIC_TIMER(pair_latency);
    throw_if_cancelled(options);
    Translation t;
    if (victim != nullptr) {
      const ClaimedPair pair = gather_pairs(*victim, layout, {&task, 1})[0];
      t = pciam_from_spectra(pair.spectra.fft_reference,
                             pair.spectra.fft_moved, *pair.reference,
                             *pair.moved, host_fftp, scratch, &counts,
                             options.peak_candidates, options.min_overlap_px);
      release_tile(victim, layout, task.reference);
      release_tile(victim, layout, task.moved);
    } else {
      const img::ImageU16 a = provider.load(task.reference);
      const img::ImageU16 b = provider.load(task.moved);
      counts.bump(counts.tile_reads, 2);
      t = pciam_full(a, b, host_fftp, scratch, &counts,
                     options.peak_candidates, options.min_overlap_px);
    }
    record_pair(result.table, options, task.moved, task.is_west, t);
  };

  pipe::Pipeline pipeline;
  pipeline.on_cancel([&] { q_ccf.close(); });
  pipeline.on_cancel([&] { exchange.shutdown(); });
  pipeline.on_cancel([&work] { work.close_all(); });

  for (std::size_t g = 0; g < gpu_count; ++g) {
    GpuPipeline* gpu = gpus[g].get();
    const std::size_t lane = gpu_lane[g];
    const std::string stage = "g" + std::to_string(gpu->id) + ".";
    pipeline.on_cancel([gpu] {
      gpu->q_read.close();
      gpu->q_fft.close();
      gpu->q_ready.close();
      // Wake stages blocked on buffer acquisition (their acquire() throws,
      // which the pipeline has already accounted for).
      gpu->pool->close();
      gpu->ncc_pool->close();
    });

    // ---- Stage 1: read. Halo-pull positions are forwarded unread.
    pipeline.add_stage(
        stage + "read", std::max<std::size_t>(1, options.read_threads),
        [gpu, &provider, &counts, &options, &layout] {
          for (const img::TilePos pos : gpu->tiles_to_read) {
            throw_if_cancelled(options);
            if (gpu->q_read.closed()) return;
            TileWork tile_work;
            tile_work.pos = pos;
            if (!gpu->halo_pull.contains(layout.index_of(pos))) {
              if (options.recorder != nullptr) {
                auto span = options.recorder->scoped(
                    "cpu.read" + std::to_string(gpu->id), "read");
                tile_work.tile =
                    std::make_shared<const img::ImageU16>(provider.load(pos));
              } else {
                tile_work.tile =
                    std::make_shared<const img::ImageU16>(provider.load(pos));
              }
              counts.bump(counts.tile_reads);
            }
            if (!gpu->q_read.push(std::move(tile_work))) return;
          }
        },
        [gpu] { gpu->q_read.close(); });

    // ---- Stage 2: copier. Host-converts up to group_k tiles into staging
    // blocks owned by ONE async H2D command (pinned-buffer analogue; the
    // real-FFT path stages the padded in-place r2c layout), then on to the
    // FFT stage. Blocking pool acquire = memory back-pressure. Buffer FIRST,
    // then work item: an unpaired buffer just returns to the pool via its
    // handle, whereas holding a work item while blocking on a dry pool could
    // deadlock a pool smaller than the group.
    pipeline.add_stage(
        stage + "copy", 1,
        [gpu, &layout, &exchange, h, w, count, bins, buffer_bytes, real_fft,
         group_k] {
          struct Staged {
            TileWork tile_work;
            vgpu::PooledBuffer buffer;
          };
          struct Upload {
            std::unique_ptr<fft::Complex[]> staging;
            void* dst = nullptr;
          };
          while (auto first = gpu->q_read.pop()) {
            vgpu::PooledBuffer buffer = gpu->pool->acquire();
            if (first->tile == nullptr) {
              // Halo pull (p2p): wait for the owner's published transform,
              // order the peer copy after the owner's FFT event, and
              // announce readiness directly (the transform arrives already
              // in the frequency domain).
              HaloExchange::Entry entry =
                  exchange.take(layout.index_of(first->pos));
              if (entry.transform == nullptr) return;  // cancelled
              gpu->copy_stream->wait_event(entry.ready);
              void* dst = buffer.data();
              const fft::Complex* src = entry.transform;
              gpu->copy_stream->enqueue("memcpy_p2p",
                                        [dst, src, buffer_bytes] {
                                          std::memcpy(dst, src, buffer_bytes);
                                        });
              gpu->install(layout.index_of(first->pos), std::move(buffer),
                           std::move(entry.tile));
              gpu->copy_stream->enqueue(
                  "halo_ready",
                  [gpu, done = first->pos,
                   release = std::move(entry.release)] {
                    release();  // owner may now recycle its copy
                    gpu->q_ready.push(done);
                  });
              continue;
            }
            std::vector<Staged> group;
            group.push_back(Staged{std::move(*first), std::move(buffer)});
            while (group.size() < group_k) {
              auto more_buffer = gpu->pool->try_acquire();
              if (!more_buffer) break;  // pool pressure: upload what we have
              // Group formation: wait briefly for the reader to top the
              // group up; a timeout (or close) dispatches the partial group.
              auto more = gpu->q_read.pop_for(std::chrono::microseconds(500));
              if (!more) break;
              group.push_back(
                  Staged{std::move(*more), std::move(*more_buffer)});
            }
            std::vector<Upload> uploads;
            uploads.reserve(group.size());
            for (Staged& s : group) {
              Upload up;
              up.staging = std::make_unique<fft::Complex[]>(bins);
              if (real_fft) {
                vgpu::k_u16_to_real_padded(s.tile_work.tile->data(),
                                           up.staging.get(), h, w);
              } else {
                vgpu::k_u16_to_complex(s.tile_work.tile->data(),
                                       up.staging.get(), count);
              }
              up.dst = s.buffer.data();
              uploads.push_back(std::move(up));
            }
            gpu->copy_stream->enqueue(
                group_label("memcpy_h2d", group.size()),
                [uploads = std::move(uploads), buffer_bytes] {
                  for (const Upload& up : uploads) {
                    std::memcpy(up.dst, up.staging.get(), buffer_bytes);
                  }
                });
            for (Staged& s : group) {
              gpu->install(layout.index_of(s.tile_work.pos),
                           std::move(s.buffer), std::move(s.tile_work.tile));
              if (!gpu->q_fft.push(s.tile_work.pos)) return;
            }
          }
          // Flush pending halo announcements before declaring this q_ready
          // producer done.
          gpu->copy_stream->synchronize();
        },
        [gpu] {
          gpu->q_fft.close();
          gpu->close_ready_when_done();
        });

    // ---- Stage 3: fft. Groups up to group_k transforms into ONE launch and
    // ONE announcement to bookkeeping, both on the fft stream. A single copy
    // event covers the whole group — the copy stream is in-order, so
    // "everything enqueued so far is done" implies every member's upload is
    // done. An exported halo transform (p2p) is published with an event
    // recorded after its FFT. With Kepler mode and several streams, FFTs
    // issue concurrently.
    auto fft_thread_ids = std::make_shared<std::atomic<std::size_t>>(0);
    pipeline.add_stage(
        stage + "fft", fft_stream_count,
        [gpu, &layout, &counts, &exchange, fft_thread_ids, bins, group_k] {
          const std::size_t stream_id =
              fft_thread_ids->fetch_add(1, std::memory_order_relaxed) %
              gpu->fft_streams.size();
          vgpu::Stream& fft_stream = *gpu->fft_streams[stream_id];
          while (auto first = gpu->q_fft.pop()) {
            std::vector<img::TilePos> group{*first};
            while (group.size() < group_k) {
              // Group formation: brief timed pop so uploads still in flight
              // can join this group (timeout or close dispatches it).
              auto more = gpu->q_fft.pop_for(std::chrono::microseconds(500));
              if (!more) break;
              group.push_back(*more);
            }
            fft_stream.wait_event(gpu->copy_stream->record_event());
            std::vector<fft::Complex*> datas;
            datas.reserve(group.size());
            {
              std::lock_guard<std::mutex> lock(gpu->state_mutex);
              for (const img::TilePos pos : group) {
                datas.push_back(gpu->states.at(layout.index_of(pos))
                                    .buffer.as<fft::Complex>());
              }
            }
            fft_stream.enqueue(
                group_label(gpu->ffts->forward_label(), group.size()),
                [gpu, datas = std::move(datas)] {
                  for (fft::Complex* data : datas) gpu->ffts->forward(data);
                });
            counts.bump(counts.forward_ffts, group.size());
            counts.bump(counts.transform_bins, group.size() * bins);
            for (const img::TilePos pos : group) {
              const std::size_t index = layout.index_of(pos);
              if (!gpu->halo_export.contains(index)) continue;
              HaloExchange::Entry entry;
              entry.ready = fft_stream.record_event();
              {
                std::lock_guard<std::mutex> lock(gpu->state_mutex);
                const GpuTileState& state = gpu->states.at(index);
                entry.transform = state.buffer.as<fft::Complex>();
                entry.tile = state.tile;
              }
              entry.release = [gpu, grid = layout, pos] {
                release_tile(gpu, grid, pos);
              };
              exchange.publish(index, std::move(entry));
            }
            std::string announce = group_label("announce", group.size());
            fft_stream.enqueue(std::move(announce),
                               [gpu, group = std::move(group)] {
                                 for (const img::TilePos pos : group) {
                                   gpu->q_ready.push(pos);
                                 }
                               });
          }
          // Drain this thread's stream so its announcements land before the
          // producer count drops.
          fft_stream.synchronize();
        },
        [gpu] { gpu->close_ready_when_done(); });

    // ---- Stage 4: bookkeeping. Ready pairs go to this GPU's WorkPool lane
    // (not a private queue) — that is what makes them visible to thieves.
    pipeline.add_stage(
        stage + "bookkeeping", 1,
        [gpu, &layout, &work, lane] {
          std::size_t emitted = 0;
          if (gpu->owned_pairs.empty()) return;
          while (auto pos = gpu->q_ready.pop()) {
            std::lock_guard<std::mutex> lock(gpu->state_mutex);
            GpuTileState& state = gpu->states.at(layout.index_of(*pos));
            state.fft_done = true;
            // Advance every owned pair whose both transforms are ready.
            for (const PairTask& pair : gpu->owned_pairs) {
              if (!(pair.reference == *pos) && !(pair.moved == *pos)) continue;
              const GpuTileState& a =
                  gpu->states.at(layout.index_of(pair.reference));
              const GpuTileState& b =
                  gpu->states.at(layout.index_of(pair.moved));
              if (a.fft_done && b.fft_done) {
                work.push(lane, pair);
                ++emitted;
              }
            }
            if (emitted == gpu->owned_pairs.size()) break;
          }
        },
        [&work, lane] { work.close(lane); });

    // ---- Stage 5: displacement. Claims up to gpu_batch_pairs pairs from
    // this GPU's lane; a stolen pair runs synchronously on the host. An
    // own-lane claim of one issues the paper's ncc -> inverse FFT ->
    // max_reduce sequence, a larger claim ONE grouped k_batched launch
    // sharing one NCC surface. Both complete their pairs from the stream,
    // so the displacement thread never blocks on the GPU.
    pipeline.add_stage(
        stage + "displacement", 1,
        [gpu, lane, &work, &lane_owner, &layout, &counts, &q_ccf, &host_pair,
         count, bins, real_fft, &options, batch_k] {
          metrics::Gauge& busy = metrics::wellknown::sched_executor_busy(
              "gpu" + std::to_string(gpu->id));
          PciamScratch scratch;
          const std::size_t peaks_k =
              std::max<std::size_t>(1, options.peak_candidates);
          vgpu::Stream& disp = *gpu->disp_stream;
          for (;;) {
            WorkPool::Claim claim = work.claim(lane, batch_k);
            if (claim.tasks.empty()) break;
            busy.set(1);
            if (claim.stolen) {
              host_pair(claim.tasks.front(), lane_owner[claim.victim],
                        scratch);
              busy.set(0);
              continue;
            }
            throw_if_cancelled(options);
            vgpu::PooledBuffer ncc = gpu->ncc_pool->acquire();
            fft::Complex* fc = ncc.as<fft::Complex>();
            std::vector<ClaimedPair> pairs =
                gather_pairs(*gpu, layout, claim.tasks);
            counts.bump(counts.ncc_multiplies, pairs.size());
            counts.bump(counts.inverse_ffts, pairs.size());
            counts.bump(counts.max_reductions, pairs.size());
            if (pairs.size() == 1) {
              const vgpu::PairDispJob job = pairs.front().spectra;
              disp.enqueue("ncc", [job, fc, bins] {
                vgpu::k_ncc_half(job.fft_reference, job.fft_moved, fc, bins);
              });
              disp.enqueue(gpu->ffts->inverse_label(),
                           [gpu, fc] { gpu->ffts->inverse(fc); });
              disp.enqueue(
                  "max_reduce",
                  [gpu, &layout, &q_ccf, fc, count, peaks_k, real_fft,
                   ncc = std::move(ncc), pairs = std::move(pairs)]() mutable {
                    const auto peaks =
                        real_fft
                            ? vgpu::k_max_abs_topk_real(
                                  reinterpret_cast<const double*>(fc), count,
                                  peaks_k)
                            : vgpu::k_max_abs_topk(fc, count, peaks_k);
                    ncc.release();
                    complete_pair(gpu, layout, q_ccf, pairs.front(), peaks);
                  });
            } else {
              disp.enqueue(
                  "pair_batch",
                  [gpu, &layout, &q_ccf, fc, count, bins, peaks_k, real_fft,
                   ncc = std::move(ncc), pairs = std::move(pairs)]() mutable {
                    std::vector<vgpu::PairDispJob> jobs;
                    jobs.reserve(pairs.size());
                    for (const ClaimedPair& pair : pairs) {
                      jobs.push_back(pair.spectra);
                    }
                    vgpu::k_batched(
                        jobs.data(), jobs.size(), fc, bins, count, peaks_k,
                        real_fft,
                        [gpu](fft::Complex* data) { gpu->ffts->inverse(data); },
                        [&](std::size_t i,
                            std::vector<vgpu::MaxAbsResult> peaks) {
                          complete_pair(gpu, layout, q_ccf, pairs[i], peaks);
                        });
                    ncc.release();
                  });
            }
            busy.set(0);
          }
          busy.set(0);
          // All pairs issued; wait for the stream to drain before declaring
          // this GPU's displacement work done.
          disp.synchronize();
        },
        [&disp_stages_live, &q_ccf] {
          if (disp_stages_live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            q_ccf.close();
          }
        });
  }

  // ---- CPU band workers: claim from the shared "cpu" lane (and steal GPU
  // pairs when idle and allowed), completing every pair on the host.
  if (rs.cpu_workers > 0) {
    pipeline.add_stage(
        "cpu.workers", rs.cpu_workers,
        [&work, cpu_lane, &lane_owner, &host_pair, &cpu_worker_ids] {
          const std::size_t id =
              cpu_worker_ids.fetch_add(1, std::memory_order_relaxed);
          set_current_thread_name("sched.cpu" + std::to_string(id));
          metrics::Gauge& busy = metrics::wellknown::sched_executor_busy(
              "cpu" + std::to_string(id));
          PciamScratch scratch;
          for (;;) {
            WorkPool::Claim claim = work.claim(cpu_lane, 1);
            if (claim.tasks.empty()) break;
            busy.set(1);
            GpuPipeline* victim =
                claim.stolen ? lane_owner[claim.victim] : nullptr;
            for (const PairTask& task : claim.tasks) {
              host_pair(task, victim, scratch);
            }
            busy.set(0);
          }
        });
  }

  // ---- Stage 6: CCF threads, shared across all GPU pipelines.
  std::atomic<std::size_t> ccf_ids{0};
  pipeline.add_stage(
      "ccf", std::max<std::size_t>(1, options.ccf_threads),
      [&q_ccf, &result, &counts, &options, &ccf_ids, &pair_latency, w] {
        const std::size_t id = ccf_ids.fetch_add(1, std::memory_order_relaxed);
        const std::string lane = "cpu.ccf" + std::to_string(id);
        while (auto task = q_ccf.pop()) {
          // Covers the host-side completion of the pair (peak disambiguation
          // + table write); the device-side NCC/IFFT cost shows up in the
          // queue wait histograms instead.
          HS_METRIC_TIMER(pair_latency);
          throw_if_cancelled(options);
          counts.bump(counts.ccf_evaluations, 4 * task->peak_indices.size());
          Translation translation;
          if (options.recorder != nullptr) {
            auto span = options.recorder->scoped(lane, "ccf");
            translation =
                disambiguate_peaks(*task->reference, *task->moved,
                                   task->peak_indices, w,
                                   options.min_overlap_px);
          } else {
            translation =
                disambiguate_peaks(*task->reference, *task->moved,
                                   task->peak_indices, w,
                                   options.min_overlap_px);
          }
          record_pair(result.table, options, task->moved_pos, task->is_west,
                      translation);
        }
      });

  try {
    pipeline.run();
  } catch (...) {
    // A failing stage unwinds without reaching its end-of-stage
    // synchronize(), so commands that touch this function's state (tile
    // maps, queues, pools) may still sit on stream queues — and ~Stream
    // drains, not discards. Quiesce every stream before the unwind frees
    // that state. The cancel hooks have already closed the queues, so the
    // pending commands' pushes fail fast and every drain terminates.
    for (auto& gpu : gpus) {
      gpu->copy_stream->synchronize();
      for (auto& fft_stream : gpu->fft_streams) fft_stream->synchronize();
      gpu->disp_stream->synchronize();
    }
    throw;
  }

  std::size_t peak_total = 0;
  for (const auto& gpu : gpus) {
    peak_total += gpu->peak.load(std::memory_order_relaxed);
  }
  result.peak_live_transforms = peak_total;
  result.ops = counts.snapshot();
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API: ResourceSet factories, the row-band partition,
// HybridScheduler, and stitch(ResourceSet).
// ---------------------------------------------------------------------------

ResourceSet ResourceSet::for_backend(Backend backend,
                                     const StitchOptions& o) {
  ResourceSet rs;
  switch (backend) {
    case Backend::kNaivePairwise:
      rs.cpu_workers = 1;
      rs.use_transform_cache = false;
      break;
    case Backend::kSimpleCpu:
      rs.cpu_workers = 1;
      break;
    case Backend::kMtCpu:
      rs.cpu_workers = std::max<std::size_t>(1, o.threads);
      break;
    case Backend::kPipelinedCpu:
      rs.cpu_workers = std::max<std::size_t>(1, o.threads);
      rs.prefetch_threads = std::max<std::size_t>(1, o.read_threads);
      break;
    case Backend::kSimpleGpu:
      rs.cpu_workers = 0;
      rs.gpu_devices = 1;
      rs.synchronous_gpu = true;
      break;
    case Backend::kPipelinedGpu:
      rs.cpu_workers = 0;
      rs.gpu_devices = std::max<std::size_t>(1, o.gpu_count);
      break;
  }
  rs.steal_threshold = o.steal_threshold;
  rs.gpu_batch_pairs = std::max<std::size_t>(1, o.gpu_batch_pairs);
  rs.label = backend_name(backend);
  return rs;
}

std::string ResourceSet::describe() const {
  std::string s;
  if (cpu_workers > 0) {
    s += std::to_string(cpu_workers) + " cpu";
    if (prefetch_threads > 0) {
      s += " + " + std::to_string(prefetch_threads) + " prefetch";
    }
  }
  if (gpu_devices > 0) {
    if (!s.empty()) s += " + ";
    s += std::to_string(gpu_devices) + " gpu";
    if (synchronous_gpu) s += " (sync)";
  }
  if (!use_transform_cache) s += ", no cache";
  if (steal_threshold > 0) {
    s += " (steal>" + std::to_string(steal_threshold) + ")";
  }
  if (gpu_batch_pairs > 1) {
    s += " (batch=" + std::to_string(gpu_batch_pairs) + ")";
  }
  return s;
}

std::vector<RowBand> gpu_row_bands(const img::GridLayout& layout,
                                   const ResourceSet& resources) {
  const std::size_t gpus =
      std::max<std::size_t>(1, std::min(resources.gpu_devices, layout.rows));
  const bool cpu_band = resources.cpu_workers > 0 && layout.rows > gpus;
  const std::size_t units = gpus + (cpu_band ? 1 : 0);
  std::vector<RowBand> bands;
  bands.reserve(gpus);
  for (std::size_t g = 0; g < gpus; ++g) {
    bands.push_back(
        RowBand{g * layout.rows / units, (g + 1) * layout.rows / units});
  }
  return bands;
}

HybridScheduler::HybridScheduler(ResourceSet resources)
    : resources_(std::move(resources)) {}

StitchResult HybridScheduler::run(const TileProvider& provider,
                                  const StitchOptions& options) const {
  const ResourceSet& rs = resources_;
  if (rs.gpu_batch_pairs < 1) {
    throw InvalidArgument("ResourceSet.gpu_batch_pairs: must be >= 1");
  }
  if (rs.cpu_workers == 0 && rs.gpu_devices == 0) {
    throw InvalidArgument(
        "ResourceSet: needs at least one executor (cpu_workers or "
        "gpu_devices)");
  }
  if (rs.prefetch_threads > 0 && !rs.use_transform_cache) {
    throw InvalidArgument(
        "ResourceSet.prefetch_threads: prefetching warms the transform "
        "cache, which use_transform_cache = false removes");
  }
  if (rs.synchronous_gpu && (rs.gpu_devices != 1 || rs.cpu_workers != 0)) {
    throw InvalidArgument(
        "ResourceSet.synchronous_gpu: the synchronous shape is exactly one "
        "GPU and no CPU workers");
  }
  if (options.use_p2p && rs.steal_threshold > 0) {
    throw InvalidArgument(
        "steal_threshold: incompatible with use_p2p (a stolen boundary pair "
        "would bypass the halo transform's cross-device release protocol)");
  }
  if (options.use_p2p && rs.cpu_workers > 0 && rs.gpu_devices > 0) {
    throw InvalidArgument(
        "ResourceSet: hybrid CPU+GPU bands are incompatible with use_p2p");
  }
  if (rs.gpu_devices == 0) return run_cpu(rs, provider, options);
  if (rs.synchronous_gpu) return run_gpu_sync(rs, provider, options);
  return run_gpu_async(rs, provider, options);
}

StitchResult stitch(const ResourceSet& resources, const TileProvider& provider,
                    const StitchOptions& options) {
  Stopwatch stopwatch;
  StitchResult result = HybridScheduler(resources).run(provider, options);
  result.backend_used = resources.label;
  result.seconds = stopwatch.seconds();
  return result;
}

}  // namespace hs::stitch
