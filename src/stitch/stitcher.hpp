// Public entry point of phase 1: relative displacement computation for a
// whole grid, across the six implementations the paper compares.
#pragma once

#include <atomic>
#include <string>

#include "common/simd.hpp"
#include "fft/types.hpp"
#include "pipeline/cancel.hpp"
#include "stitch/traversal.hpp"
#include "stitch/types.hpp"
#include "trace/trace.hpp"

namespace hs::fault {
class FaultPlan;
}

namespace hs::stitch {

class PairLedger;
class SharedSpectrumCache;

enum class Backend {
  /// Fiji-style baseline: per-pair FFT recomputation, no caching.
  kNaivePairwise,
  /// Paper's Simple-CPU: sequential, transform cache, early free.
  kSimpleCpu,
  /// Paper's MT-CPU: SPMD spatial decomposition over `threads` threads.
  kMtCpu,
  /// Paper's Pipelined-CPU: reader -> fft -> bookkeeping -> displacement.
  kPipelinedCpu,
  /// Paper's Simple-GPU: synchronous single-stream virtual-GPU port.
  kSimpleGpu,
  /// Paper's Pipelined-GPU: per-GPU multi-stream pipelines + CPU CCF stage.
  kPipelinedGpu,
};

inline constexpr Backend kAllBackends[] = {
    Backend::kNaivePairwise, Backend::kSimpleCpu,    Backend::kMtCpu,
    Backend::kPipelinedCpu,  Backend::kSimpleGpu,    Backend::kPipelinedGpu,
};

std::string backend_name(Backend backend);
Backend parse_backend(const std::string& name);

/// True for backends that execute on the (virtual) GPU — the resources the
/// serve layer's circuit breaker guards.
inline constexpr bool is_gpu_backend(Backend backend) {
  return backend == Backend::kSimpleGpu || backend == Backend::kPipelinedGpu;
}

struct StitchOptions {
  fft::Rigor rigor = fft::Rigor::kEstimate;
  Traversal traversal = Traversal::kDiagonalChained;

  /// Compute worker threads: SPMD width for MT-CPU; FFT + displacement
  /// workers for Pipelined-CPU. Ignored by sequential backends.
  std::size_t threads = 1;
  /// Reader threads for the pipelined backends.
  std::size_t read_threads = 1;
  /// CCF threads (stage 6 of the GPU pipeline, shared across GPUs).
  std::size_t ccf_threads = 2;

  /// Virtual GPUs for the GPU backends (one execution pipeline each).
  std::size_t gpu_count = 1;
  /// Per-GPU memory arena (the Tesla C2070 had 6 GB; scale to the tiles).
  std::size_t gpu_memory_bytes = 512ull << 20;
  /// Transform buffers per GPU pool; 0 = auto (min grid dimension + slack,
  /// the paper's sizing rule).
  std::size_t pool_buffers = 0;

  /// Optional profiler; stream/stage activity is recorded when set.
  hs::trace::Recorder* recorder = nullptr;

  // --- paper SVI-A future-work extensions, implemented -------------------
  /// Kepler/Hyper-Q mode: FFT kernels on different streams execute
  /// concurrently (Fermi default: serialized), and the Pipelined-GPU FFT
  /// stage may issue from several CPU threads/streams.
  bool kepler_concurrent_fft = false;
  /// FFT issue streams per GPU (only > 1 is useful with Kepler mode).
  std::size_t fft_streams = 1;
  /// Share boundary-tile transforms between GPUs with peer-to-peer copies
  /// instead of re-reading and re-transforming halo rows.
  bool use_p2p = false;
  /// Correlation-surface peaks tested per pair (4 CCFs each). 1 = the
  /// paper's algorithm (global max only); larger values trade CCF work for
  /// robustness on noisy/low-overlap data (the MIST refinement).
  std::size_t peak_candidates = 1;
  /// Minimum overlap (pixels, per dimension) a candidate interpretation
  /// must imply to be considered. 1 = the paper's algorithm; a few percent
  /// of the tile extent rejects spurious thin-sliver alignments.
  std::int64_t min_overlap_px = 1;
  /// Half-spectrum PCIAM (paper SVI: real-to-complex transforms "do less
  /// work and reduce the computation's memory footprint"): tile forward
  /// transforms become r2c half spectra of h*(w/2+1) bins, the NCC runs
  /// over the Hermitian half, and the c2r inverse lands in a real surface.
  /// Roughly 2x forward-FFT throughput and half the transform-cache bytes;
  /// displacement tables are unchanged.
  bool use_real_fft = false;
  /// Permit this job's spectra and pair results to persist in the service's
  /// disk spill tier (--spill-dir). Off keeps the job's reuse memory-only —
  /// nothing it computes outlives the process. No-op when the service has
  /// no spill directory configured.
  bool spill = true;

  // --- hybrid scheduler knobs (scheduler.hpp) ----------------------------
  /// Work-stealing hysteresis: an idle executor steals from another lane
  /// only while the victim still has more than this many queued pairs, so
  /// the GPU keeps batch-sized chunks of its own work. 0 disables stealing
  /// entirely — the default, and the behavior of every legacy backend name.
  std::size_t steal_threshold = 0;
  /// Most pairs one GPU displacement launch covers, and most tiles one
  /// upload/FFT enqueue covers (always one under use_p2p). A dispatch
  /// policy over the one Pipelined-GPU stage set: 1 issues the paper's
  /// per-tile and per-pair commands; larger values amortize Stream::enqueue
  /// overhead without changing tables or semantic op counts.
  std::size_t gpu_batch_pairs = 1;

  // --- SIMD kernel dispatch (common/simd.hpp) ----------------------------
  /// Codelet tier for the vectorized kernels (FFT butterflies, transpose,
  /// NCC, reductions, pixel widening). kAuto = widest the CPU supports,
  /// after the HS_KERNEL_DISPATCH environment variable; a concrete tier is
  /// forced at stitch() entry via common::set_forced_tier (process-global —
  /// concurrent stitches share it; clamped to CPU capabilities). Tables are
  /// bit-identical across tiers, so this knob trades wall-clock only.
  common::KernelDispatch kernel_dispatch = common::KernelDispatch::kAuto;

  // --- serve-layer hooks -------------------------------------------------
  /// Cooperative cancellation: every backend polls this between pairs (and
  /// the pipelined backends inside their stage loops); a requested token
  /// makes stitch() unwind cleanly and throw Cancelled.
  const pipe::CancelToken* cancel = nullptr;
  /// Progress: incremented once as each pair's translation lands in the
  /// displacement table. Total is layout.pair_count().
  std::atomic<std::size_t>* pairs_done = nullptr;

  // --- fault-tolerance hooks (see fault/ and ledger.hpp) -----------------
  /// Fault-injection plan forwarded into the virtual GPUs the backend
  /// creates. Null in production; the hooks are then one pointer compare.
  hs::fault::FaultPlan* faults = nullptr;
  /// Warm start: pairs already settled in this table (checkpoint or earlier
  /// attempt) are skipped, not recomputed. Layout must match the provider.
  const DisplacementTable* warm_start = nullptr;
  /// Pair-level progress ledger; backends record each computed pair so
  /// fallback attempts and checkpoints can reuse it.
  PairLedger* ledger = nullptr;

  // --- cross-job shared cache (shared_cache.hpp) -------------------------
  /// Content-addressed spectrum/pair store shared across jobs. Process-local
  /// like the hooks above (never serialized); StitchService binds it from
  /// the request's tenant fields, direct callers may set it themselves.
  /// Only the CPU transform-cache backends consult it.
  SharedSpectrumCache* shared_cache = nullptr;
  /// Tenant the run's cache inserts are charged to.
  std::string shared_tenant = "default";
  /// Byte quota for this tenant inside the shared cache (0 = unlimited).
  std::size_t shared_tenant_quota_bytes = 0;
};

/// Polls the options' cancel token (no-op when unset); backends call this at
/// preemption points.
inline void throw_if_cancelled(const StitchOptions& options) {
  if (options.cancel != nullptr) options.cancel->throw_if_requested();
}

/// Bumps the options' pair-progress counter (no-op when unset).
inline void note_pair_done(const StitchOptions& options) {
  if (options.pairs_done != nullptr) {
    options.pairs_done->fetch_add(1, std::memory_order_relaxed);
  }
}

/// Runs phase 1 with the chosen backend. Thin forwarding wrapper over the
/// StitchRequest API (see request.hpp): builds a request, validates it, and
/// dispatches. Throws InvalidArgument on configuration errors (with the
/// offending field named) and Cancelled if options.cancel fires. All
/// backends return bit-identical displacement tables for the same input.
StitchResult stitch(Backend backend, const TileProvider& provider,
                    const StitchOptions& options = {});

}  // namespace hs::stitch
