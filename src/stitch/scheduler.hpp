// HybridScheduler — the one dispatch loop behind every backend.
//
// The paper's six implementations (NaivePairwise, Simple-CPU, MT-CPU,
// Pipelined-CPU, Simple-GPU, Pipelined-GPU) share the same unit of work — an
// independent PCIAM pair task — but historically each hand-rolled its own
// dispatch loop. This module collapses them into one scheduler parameterized
// by a ResourceSet: a shared pool of pair-task lanes fed in the existing
// traversal order, claimed by N CPU workers and/or M virtual GPUs. Each
// legacy Backend enum value is now just a ResourceSet factory preset
// (ResourceSet::for_backend), and hybrid CPU+GPU configurations that no
// enum value names become expressible.
//
// Every shape but Simple-GPU runs one band body: a six-stage pipeline per
// GPU row band (gpu_row_bands) plus one CPU band, the rows below the last
// GPU band, whose workers — and, with prefetch_threads, the Pipelined-CPU
// reader stage — serve it through one TransformCache. A CPU-only shape is a
// band run with no GPU band and a CPU band covering every row; Simple-CPU is
// its one-worker case. Every band closes its pairs in the configured
// traversal order over its own rows.
//
// Two extensions ride on the unified loop, both off by default so every
// legacy configuration stays bit-identical to its pre-scheduler behavior:
//
//  * Demand-driven work stealing (steal_threshold > 0): an executor whose
//    lane runs dry pulls a pair from the deepest other lane — idle vgpu
//    streams pull CPU-queued pairs and vice versa — but only while the
//    victim holds more than steal_threshold queued pairs (hysteresis, so a
//    GPU keeps batch-sized chunks of its own work). Efficient Irregular
//    Wavefront Propagation Algorithms on Hybrid CPU-GPU Machines shows this
//    closes exactly the straggler gap a static split leaves open. Safe
//    because PCIAM pairs are pure: any executor produces the bit-identical
//    Translation, so steals reorder work without changing the table.
//
//  * Batched vgpu dispatch (gpu_batch_pairs > 1): a dispatch policy over
//    the one per-GPU pipeline, not a second pipeline. The copy and FFT
//    stages group up to k tiles per enqueue (one under use_p2p, where a
//    halo pull stays its own item), and the displacement stage claims up to
//    k pairs and issues a claim of several as ONE "pair_batch" command that
//    runs NCC -> inverse FFT -> peak scan for each pair in turn. A group or
//    claim of one issues exactly the paper's per-tile and per-pair
//    commands, which is what k = 1 runs. Grouping amortizes Stream::enqueue
//    overhead the way Accelerating Pathology Image Data Cross-Comparison on
//    CPU-GPU Hybrid Systems batches small GPU tasks. Semantic op counts
//    (forward_ffts, ncc_multiplies, ...) are bumped per pair regardless of
//    grouping; only hs_vgpu_stream_enqueues_total shrinks.
//
// Simple-GPU (ResourceSet::synchronous_gpu) keeps a shape of its own: one
// caller thread, one default stream, a synchronize after every command —
// the pathology the paper profiles in Fig 7. Threading that synchronous
// mode through every asynchronous stage would cost more code than it saves.
//
// Observability: hs_sched_steals_total{direction}, hs_sched_batch_size,
// hs_sched_executor_busy{executor}, and steal instants in the "sched" trace
// lane (created lazily, so steal-free runs record no extra lane).
#pragma once

#include <string>
#include <vector>

#include "stitch/stitcher.hpp"

namespace hs::stitch {

/// The executors a stitch runs on, plus the scheduling knobs. Legacy
/// backends map onto these via for_backend(); hybrid shapes (cpu_workers > 0
/// AND gpu_devices > 0) are reachable through the ResourceSet API only.
struct ResourceSet {
  /// CPU pair workers. 0 = GPU-only configuration.
  std::size_t cpu_workers = 1;
  /// Dedicated transform-prefetch threads warming the CPU band's
  /// TransformCache ahead of its workers (the Pipelined-CPU reader stage).
  /// Requires use_transform_cache and CPU workers.
  std::size_t prefetch_threads = 0;
  /// Compute each tile's forward transform once and share it (every backend
  /// except the Fiji-style naive baseline). false is valid only on CPU-only
  /// shapes (gpu_devices == 0): a hybrid CPU band always uses the cache.
  bool use_transform_cache = true;
  /// Virtual GPUs, one execution pipeline each. 0 = CPU-only.
  std::size_t gpu_devices = 0;
  /// Simple-GPU mode: one caller thread drives one GPU through a single
  /// default stream, synchronizing after every command (no overlap).
  bool synchronous_gpu = false;
  /// Work-stealing hysteresis; see StitchOptions::steal_threshold.
  std::size_t steal_threshold = 0;
  /// Pairs per grouped vgpu launch; see StitchOptions::gpu_batch_pairs.
  std::size_t gpu_batch_pairs = 1;
  /// Label for metrics (hs_stitch_pair_latency_us{backend=...}) and
  /// result.backend_used.
  std::string label = "custom";

  /// The ResourceSet a legacy Backend name denotes. steal_threshold and
  /// gpu_batch_pairs are copied from the options (both default to the
  /// legacy-exact behavior).
  static ResourceSet for_backend(Backend backend,
                                 const StitchOptions& options);

  /// Human-readable shape, e.g. "2 cpu + 1 prefetch + 2 gpu (steal>1)".
  std::string describe() const;
};

/// One GPU's rows under the scheduler's static partition: it owns the pairs
/// whose south/east tile lies in rows [row_begin, row_end), and reads those
/// rows plus, for every band but the first, the halo row above them.
struct RowBand {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;

  /// First row the band reads: its halo row, or row 0 for the first band.
  std::size_t first_row() const { return row_begin > 0 ? row_begin - 1 : 0; }
  /// The tile grid the band reads, halo row included.
  img::GridLayout layout(std::size_t cols) const {
    return img::GridLayout{row_end - first_row(), cols};
  }
};

/// The static split of `layout` over `resources`' GPUs: contiguous
/// equal-rows bands, one per GPU (gpu_devices clamped to [1, rows]), and
/// none without GPUs. With CPU workers and rows to spare, the CPU band is
/// one more equal unit at the bottom, rows [back().row_end, rows), or every
/// row when there is no GPU band. Work stealing refines the split at run
/// time; request validation and pool sizing read it too.
std::vector<RowBand> gpu_row_bands(const img::GridLayout& layout,
                                   const ResourceSet& resources);

/// Transform slots of a buffer pool serving `grid`: options.pool_buffers
/// when set, else the traversal's working set plus 4. The paper requires a
/// pool larger than the grid's smallest dimension; the working set
/// generalizes that rule per traversal. Pool sizing, request validation and
/// the predicted footprints all read it.
std::size_t pool_slots(const StitchOptions& options,
                       const img::GridLayout& grid);

/// Rejects a pool_buffers that cannot cover the working set of a shape in
/// `resources` that draws from a buffer pool: its copy, upload or prefetch
/// stage would wait on a dry pool forever. A prefetch shape needs more
/// slots than the traversal's working set on `layout`; the synchronous GPU
/// needs the working set plus an NCC working buffer; every asynchronous
/// GPU band from gpu_row_bands needs more than its own working set. Throws
/// InvalidArgument naming pool_buffers. Request validation and
/// HybridScheduler::run both call it.
void validate_pool_slots(const ResourceSet& resources,
                         const StitchOptions& options,
                         const img::GridLayout& layout);

/// One dispatch loop over pair tasks for any ResourceSet. Preserves every
/// backend contract: per-pair cancellation polling, warm-start filtering,
/// ledger recording, fault hooks, and bit-identical tables in both FFT
/// modes.
class HybridScheduler {
 public:
  explicit HybridScheduler(ResourceSet resources);

  /// Runs phase 1. Throws like the legacy backends (IoError, DeviceError,
  /// OutOfDeviceMemory, Cancelled, ...); request.cpp's fallback chains
  /// catch the same exceptions they always did.
  StitchResult run(const TileProvider& provider,
                   const StitchOptions& options) const;

  const ResourceSet& resources() const { return resources_; }

 private:
  ResourceSet resources_;
};

/// Convenience entry point mirroring stitch(Backend, ...): build a scheduler
/// for `resources` and run it. This is the non-deprecated way for examples
/// and benches to pick an execution shape.
StitchResult stitch(const ResourceSet& resources, const TileProvider& provider,
                    const StitchOptions& options = StitchOptions());

}  // namespace hs::stitch
