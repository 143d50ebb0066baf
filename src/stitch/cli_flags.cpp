#include "stitch/cli_flags.hpp"

#include <fstream>
#include <string>

#include "common/simd.hpp"
#include "metrics/metrics.hpp"
#include "stitch/traversal.hpp"

namespace hs::stitch {

namespace {

std::string num(std::size_t v) { return std::to_string(v); }
std::string boolean(bool v) { return v ? "true" : "false"; }

std::size_t get_size(const CliParser& cli, const std::string& name) {
  const std::int64_t v = cli.get_int(name);
  HS_REQUIRE(v >= 0, "flag --" + name + " must be non-negative");
  return static_cast<std::size_t>(v);
}

}  // namespace

void register_stitch_flags(CliParser& cli, const StitchCliDefaults& defaults) {
  const StitchOptions& o = defaults.options;
  if (defaults.include_backend) {
    cli.add_flag("backend", "stitching backend", defaults.backend);
  }
  cli.add_flag("threads", "worker threads", num(o.threads));
  cli.add_flag("read-threads", "tile reader threads (pipelined backends)",
               num(o.read_threads));
  cli.add_flag("ccf-threads", "CCF threads (pipelined-gpu)",
               num(o.ccf_threads));
  cli.add_flag("gpus", "virtual GPUs (pipelined-gpu)", num(o.gpu_count));
  cli.add_flag("gpu-memory-mb", "device memory per virtual GPU, MiB",
               num(o.gpu_memory_bytes >> 20));
  cli.add_flag("pool-buffers", "buffer-pool slots (0 = auto: working set + 4)",
               num(o.pool_buffers));
  cli.add_flag("traversal", "grid traversal order",
               traversal_name(o.traversal));
  cli.add_flag("kepler", "concurrent FFT kernels (Hyper-Q)",
               boolean(o.kepler_concurrent_fft));
  cli.add_flag("fft-streams", "FFT streams per GPU (needs --kepler when > 1)",
               num(o.fft_streams));
  cli.add_flag("p2p", "share halo transforms via peer-to-peer copies",
               boolean(o.use_p2p));
  cli.add_flag("peaks", "correlation peaks tested per pair",
               num(o.peak_candidates));
  cli.add_flag("min-overlap", "minimum candidate overlap in pixels",
               std::to_string(o.min_overlap_px));
  cli.add_flag("real-fft",
               "half-spectrum PCIAM: r2c/c2r transforms (~2x FFT throughput, "
               "~1/2 transform memory)",
               boolean(o.use_real_fft));
  cli.add_flag("steal-threshold",
               "work-stealing hysteresis: idle executors steal from lanes "
               "deeper than this (0 = stealing off)",
               num(o.steal_threshold));
  cli.add_flag("gpu-batch-pairs",
               "pair tasks grouped per vgpu launch (1 = per-pair dispatch)",
               num(o.gpu_batch_pairs));
  cli.add_flag("kernel-dispatch",
               "SIMD codelet tier for the whole process: auto, scalar, sse2, "
               "or avx2 (clamped to CPU support; tables are bit-identical "
               "across tiers)",
               "auto");
}

Backend backend_from_cli(const CliParser& cli) {
  return parse_backend(cli.get("backend"));
}

StitchOptions options_from_cli(const CliParser& cli) {
  StitchOptions options;
  options.threads = get_size(cli, "threads");
  options.read_threads = get_size(cli, "read-threads");
  options.ccf_threads = get_size(cli, "ccf-threads");
  options.gpu_count = get_size(cli, "gpus");
  options.gpu_memory_bytes = get_size(cli, "gpu-memory-mb") << 20;
  options.pool_buffers = get_size(cli, "pool-buffers");
  options.traversal = parse_traversal(cli.get("traversal"));
  options.kepler_concurrent_fft = cli.get_bool("kepler");
  options.fft_streams = get_size(cli, "fft-streams");
  options.use_p2p = cli.get_bool("p2p");
  options.peak_candidates = get_size(cli, "peaks");
  options.min_overlap_px = static_cast<int>(cli.get_int("min-overlap"));
  options.use_real_fft = cli.get_bool("real-fft");
  options.steal_threshold = get_size(cli, "steal-threshold");
  options.gpu_batch_pairs = get_size(cli, "gpu-batch-pairs");
  // The tier is process-wide, the scope HS_KERNEL_DISPATCH already has;
  // auto leaves the environment's setting in effect.
  const common::KernelDispatch dispatch =
      common::parse_dispatch(cli.get("kernel-dispatch"));
  if (dispatch != common::KernelDispatch::kAuto) {
    common::set_forced_tier(dispatch);
  }
  return options;
}

void register_grid_flags(CliParser& cli, const GridCliDefaults& defaults) {
  cli.add_flag("rows", "grid rows", num(defaults.rows));
  cli.add_flag("cols", "grid cols", num(defaults.cols));
  cli.add_flag("tile-height", "tile height in pixels",
               num(defaults.tile_height));
  cli.add_flag("tile-width", "tile width in pixels", num(defaults.tile_width));
  cli.add_flag("overlap", "overlap fraction between adjacent tiles",
               std::to_string(defaults.overlap));
  cli.add_flag("seed", "synthetic dataset seed", num(defaults.seed));
}

img::GridLayout layout_from_cli(const CliParser& cli) {
  return img::GridLayout{get_size(cli, "rows"), get_size(cli, "cols")};
}

sim::AcquisitionParams acquisition_from_cli(const CliParser& cli) {
  sim::AcquisitionParams acq;
  acq.grid_rows = get_size(cli, "rows");
  acq.grid_cols = get_size(cli, "cols");
  acq.tile_height = get_size(cli, "tile-height");
  acq.tile_width = get_size(cli, "tile-width");
  acq.overlap_fraction = cli.get_double("overlap");
  acq.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return acq;
}

void register_deadline_flag(CliParser& cli) {
  cli.add_flag("deadline-ms",
               "end-to-end wall-clock budget in milliseconds (0 = unlimited); "
               "an expired run fails with DeadlineExceeded",
               "0");
}

std::int64_t deadline_ms_from_cli(const CliParser& cli) {
  const std::int64_t v = cli.get_int("deadline-ms");
  HS_REQUIRE(v >= 0, "flag --deadline-ms must be non-negative");
  return v;
}

void register_journal_flags(CliParser& cli) {
  cli.add_flag("journal-dir",
               "write-ahead journal directory: job lifecycle is journaled "
               "and a restart recovers unfinished jobs from their "
               "checkpoints; empty = no journal",
               "");
  cli.add_flag("journal-fsync",
               "journal durability policy: never, interval, or every-record",
               "interval");
}

std::string journal_dir_from_cli(const CliParser& cli) {
  return cli.get("journal-dir");
}

std::string journal_fsync_from_cli(const CliParser& cli) {
  const std::string policy = cli.get("journal-fsync");
  // Vocabulary check only; serve::parse_fsync_policy does the real mapping
  // (hs_stitch must not depend on hs_serve).
  HS_REQUIRE(policy == "never" || policy == "interval" ||
                 policy == "every-record" || policy == "every_record",
             "flag --journal-fsync must be never, interval, or every-record");
  return policy;
}

void register_spill_flags(CliParser& cli) {
  cli.add_flag("spill-dir",
               "disk spill tier under the shared transform cache: evicted "
               "and overflow spectra persist as CRC-framed files and the "
               "cache warm-starts from them after a restart; empty = off",
               "");
  cli.add_flag("soft-watermark",
               "memory-pressure soft watermark as a fraction of the budget "
               "(0 = off): above it admission headroom shrinks and the "
               "shared cache goes disk-primary",
               "0");
  cli.add_flag("hard-watermark",
               "memory-pressure hard watermark as a fraction of the budget "
               "(0 = off): at it new jobs are deferred, never OOM-killed",
               "0");
}

std::string spill_dir_from_cli(const CliParser& cli) {
  return cli.get("spill-dir");
}

namespace {

double watermark(const CliParser& cli, const std::string& name) {
  const double v = cli.get_double(name);
  HS_REQUIRE(v >= 0.0 && v <= 1.0,
             "flag --" + name + " must be a fraction in [0, 1]");
  return v;
}

}  // namespace

double soft_watermark_from_cli(const CliParser& cli) {
  return watermark(cli, "soft-watermark");
}

double hard_watermark_from_cli(const CliParser& cli) {
  return watermark(cli, "hard-watermark");
}

void register_tenant_flags(CliParser& cli) {
  cli.add_flag("tenant",
               "tenant this run's jobs are accounted to (weighted-fair "
               "admission + per-tenant memory quota in the serve layer)",
               "default");
  cli.add_flag("tenant-weight",
               "weighted-fair-queueing weight: twice the weight is admitted "
               "twice as often under contention",
               "1");
  cli.add_flag("tenant-quota-mb",
               "per-tenant memory cap in MiB over admitted-job footprints "
               "and shared-cache residency (0 = unlimited)",
               "0");
}

std::string tenant_from_cli(const CliParser& cli) {
  const std::string tenant = cli.get("tenant");
  HS_REQUIRE(tenant.find('\n') == std::string::npos &&
                 tenant.find('\r') == std::string::npos,
             "flag --tenant must not contain newlines");
  return tenant;
}

double tenant_weight_from_cli(const CliParser& cli) {
  const double weight = cli.get_double("tenant-weight");
  HS_REQUIRE(weight > 0.0, "flag --tenant-weight must be positive");
  return weight;
}

std::size_t tenant_quota_bytes_from_cli(const CliParser& cli) {
  return get_size(cli, "tenant-quota-mb") << 20;
}

void register_shared_cache_flag(CliParser& cli, std::size_t default_mb) {
  cli.add_flag("shared-cache-mb",
               "cross-job content-addressed transform cache capacity in MiB: "
               "identical tiles across jobs share one spectrum (0 = off)",
               num(default_mb));
}

std::size_t shared_cache_bytes_from_cli(const CliParser& cli) {
  return get_size(cli, "shared-cache-mb") << 20;
}

void register_metrics_flags(CliParser& cli) {
  cli.add_flag("metrics-out",
               "write a metrics snapshot here on exit (Prometheus text, or "
               "JSON when the path ends in .json); empty = disabled",
               "");
}

bool write_metrics_if_requested(const CliParser& cli) {
  const std::string& path = cli.get("metrics-out");
  if (path.empty()) return false;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw IoError("cannot create metrics file: " + path);
  file << (json ? metrics::Registry::global().render_json()
                : metrics::Registry::global().render_text());
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to metrics file: " + path);
  return true;
}

void register_json_out_flag(CliParser& cli, const std::string& what,
                            const std::string& default_path) {
  cli.add_flag("json-out",
               "write " + what +
                   " as JSON here (empty = disabled); scripts/perf_gate.py "
                   "diffs these files against the committed BENCH_* "
                   "snapshots",
               default_path);
}

std::string json_out_from_cli(const CliParser& cli) {
  return cli.get("json-out");
}

std::string extract_json_out_flag(int* argc, char** argv,
                                  const std::string& default_path) {
  std::string path = default_path;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < *argc) {
      path = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      path = arg.substr(std::string("--json-out=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return path;
}

}  // namespace hs::stitch
