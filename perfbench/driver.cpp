// End-to-end and per-layer benchmark driver for the stitching library.
//
// One process runs one workload closed-loop for --seconds of timed
// requests, checks every output, and prints one JSON object as the last
// line of stdout: the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). README.md in this directory says why
// each workload exists and which layer metric should move which end-to-end
// metric. Everything is measured from outside the library: by timing calls
// into each module's public functions, by a timing TileProvider decorator,
// and by reading counters the library already exports.
//
// Usage: perfbench_driver --workload <plate-disk|plate-hybrid|serve-window>
//          --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
// Exit code 0 only when every output check passed.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/crc32c.hpp"
#include "compose/blend.hpp"
#include "compose/positions.hpp"
#include "fft/plan_cache.hpp"
#include "metrics/wellknown.hpp"
#include "serve/service.hpp"
#include "simdata/plate.hpp"
#include "stitch/pciam.hpp"
#include "stitch/scheduler.hpp"
#include "stitch/shared_cache.hpp"

using namespace hs;

namespace {

// Set-up is repeated this many times per run (each from a cleared FFT plan
// cache) and reported as the median, so one slow start does not decide it.
constexpr int kSetupReps = 5;
// A request's direct child spans must cover its latency to within this
// share; the rest is time no layer span explains. On serve-window the
// client's own polling delay counts against it (up to 2.5% seen).
constexpr double kLayerGapTolerance = 0.10;
// Largest tile-position error (px) against simdata ground truth accepted.
constexpr double kMaxPositionErrorPx = 1.0;
// serve-window needs this many timed jobs so ten samples lie beyond p90.
constexpr std::size_t kMinServeJobs = 100;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around calls into the library, kept
// in memory and written out at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double t0;
  double t1;
  long id;
  long parent;   // 0 = none
  long request;  // 0 = not part of a request
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  long new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(const char* name, double t0, double t1, long id, long parent,
              long request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, t0, t1, id, parent, request});
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    const auto all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f,\"id\":%ld,"
                    "\"parent\":%ld,\"request\":%ld}%s\n",
                    s.name, s.t0, s.t1, s.id, s.parent, s.request,
                    i + 1 < all.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  const bool enabled_;
  std::atomic<long> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times its own lifetime and records it as a span when tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, long parent, long request)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer.enabled() ? tracer.new_id() : 0),
        t0_(now_s()) {}
  ~Scope() { tracer_.record(name_, t0_, now_s(), id_, parent_, request_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  long id() const { return id_; }
  double elapsed() const { return now_s() - t0_; }

 private:
  Tracer& tracer_;
  const char* name_;
  long parent_;
  long request_;
  long id_;
  double t0_;
};

/// TileProvider decorator: counts loads and their time, and records one
/// "imgio.read" span per load under the span set by set_parent().
class TimedProvider final : public stitch::TileProvider {
 public:
  TimedProvider(const stitch::TileProvider& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  img::GridLayout layout() const override { return inner_.layout(); }
  std::size_t tile_height() const override { return inner_.tile_height(); }
  std::size_t tile_width() const override { return inner_.tile_width(); }

  img::ImageU16 load(img::TilePos pos) const override {
    const double t0 = now_s();
    img::ImageU16 tile = inner_.load(pos);
    const double t1 = now_s();
    reads_.fetch_add(1, std::memory_order_relaxed);
    read_ns_.fetch_add(static_cast<std::uint64_t>((t1 - t0) * 1e9),
                       std::memory_order_relaxed);
    if (tracer_.enabled()) {
      tracer_.record("imgio.read", t0, t1, tracer_.new_id(),
                     parent_.load(std::memory_order_relaxed),
                     request_.load(std::memory_order_relaxed));
    }
    return tile;
  }

  void set_parent(long parent, long request) {
    parent_.store(parent, std::memory_order_relaxed);
    request_.store(request, std::memory_order_relaxed);
  }
  /// Loads and their seconds since the last call; resets both.
  std::pair<std::uint64_t, double> take_counts() {
    return {reads_.exchange(0),
            static_cast<double>(read_ns_.exchange(0)) * 1e-9};
  }

 private:
  const stitch::TileProvider& inner_;
  Tracer& tracer_;
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> read_ns_{0};
  std::atomic<long> parent_{0};
  std::atomic<long> request_{0};
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Megabytes of pixel data in `tiles`.
double tiles_mb(const std::vector<img::ImageU16>& tiles) {
  double bytes = 0.0;
  for (const img::ImageU16& t : tiles) {
    bytes += static_cast<double>(t.pixel_count()) * sizeof(std::uint16_t);
  }
  return bytes / (1 << 20);
}

/// Returns freed heap to the system, so pages the input builders freed do
/// not count, then restarts the process's resident-set high-water mark
/// (Linux clear_refs).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) std::printf("warning: VmHWM not reset; peak includes inputs\n");
}
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t steals_total() {
  std::uint64_t n = 0;
  for (const char* d : metrics::wellknown::kStealDirections) {
    n += metrics::wellknown::sched_steals_total(d).value();
  }
  return n;
}

/// Work one request does; must repeat exactly across requests and runs.
struct WorkSignature {
  stitch::OpCounts ops;
  std::uint64_t reads = 0;

  bool operator==(const WorkSignature& o) const {
    return ops.tile_reads == o.ops.tile_reads &&
           ops.forward_ffts == o.ops.forward_ffts &&
           ops.ncc_multiplies == o.ops.ncc_multiplies &&
           ops.inverse_ffts == o.ops.inverse_ffts &&
           ops.max_reductions == o.ops.max_reductions &&
           ops.ccf_evaluations == o.ops.ccf_evaluations &&
           ops.transform_bins == o.ops.transform_bins && reads == o.reads;
  }
  std::string str() const {
    std::ostringstream s;
    s << "reads=" << reads << " tile_reads=" << ops.tile_reads
      << " fwd=" << ops.forward_ffts << " ncc=" << ops.ncc_multiplies
      << " inv=" << ops.inverse_ffts << " max=" << ops.max_reductions
      << " ccf=" << ops.ccf_evaluations << " bins=" << ops.transform_bins;
    return s.str();
  }
};

/// Maximum distance (px) between resolved tile positions and ground truth,
/// both taken relative to the window's first tile.
double position_error(const compose::GlobalPositions& pos,
                      const std::vector<std::int64_t>& truth_x,
                      const std::vector<std::int64_t>& truth_y) {
  double worst = 0.0;
  for (std::size_t i = 0; i < pos.x.size(); ++i) {
    const double dx = static_cast<double>((pos.x[i] - pos.x[0]) -
                                          (truth_x[i] - truth_x[0]));
    const double dy = static_cast<double>((pos.y[i] - pos.y[0]) -
                                          (truth_y[i] - truth_y[0]));
    worst = std::max(worst, std::hypot(dx, dy));
  }
  return worst;
}

bool same_pairs(const stitch::DisplacementTable& a,
                const stitch::DisplacementTable& b) {
  return a.west == b.west && a.north == b.north;
}

// ---------------------------------------------------------------------------
// Single-thread replay: every tile through tile_forward_spectrum and
// tile_content_digest, every pair through pciam_from_spectra, with no
// scheduler, cache or vgpu in between. Its table is the reference each
// request is checked against; its timings are the fft/pciam/digest layer
// costs and the single-thread baseline. Row-streamed: two rows of spectra
// are live at a time.
// ---------------------------------------------------------------------------

struct Replay {
  stitch::DisplacementTable table;
  std::vector<double> forward_ms;
  std::vector<double> pair_ms;
  std::vector<double> digest_ms;
};

Replay replay_grid(const stitch::TileProvider& provider, bool real_fft,
                   std::size_t rows) {
  const img::GridLayout layout = provider.layout();
  rows = std::min(rows, layout.rows);
  const stitch::FftPipeline pipeline =
      stitch::make_fft_pipeline(provider.tile_height(), provider.tile_width(),
                                fft::Rigor::kEstimate, real_fft);
  stitch::PciamScratch scratch;
  Replay out{stitch::DisplacementTable(layout), {}, {}, {}};
  std::vector<img::ImageU16> prev_tiles, tiles;
  std::vector<std::vector<fft::Complex>> prev_spec, spec;
  for (std::size_t r = 0; r < rows; ++r) {
    tiles.clear();
    spec.assign(layout.cols,
                std::vector<fft::Complex>(pipeline.spectrum_count()));
    for (std::size_t c = 0; c < layout.cols; ++c) {
      tiles.push_back(provider.load(img::TilePos{r, c}));
      const double t0 = now_s();
      volatile std::uint64_t digest = stitch::tile_content_digest(tiles[c]);
      (void)digest;
      const double t1 = now_s();
      out.digest_ms.push_back((t1 - t0) * 1e3);
      stitch::tile_forward_spectrum(tiles[c], pipeline, spec[c].data(),
                                    scratch);
      out.forward_ms.push_back((now_s() - t1) * 1e3);
    }
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const img::TilePos pos{r, c};
      if (c > 0) {
        const double t0 = now_s();
        out.table.west_of(pos) = stitch::pciam_from_spectra(
            spec[c - 1].data(), spec[c].data(), tiles[c - 1], tiles[c],
            pipeline, scratch, nullptr);
        out.pair_ms.push_back((now_s() - t0) * 1e3);
      }
      if (r > 0) {
        const double t0 = now_s();
        out.table.north_of(pos) = stitch::pciam_from_spectra(
            prev_spec[c].data(), spec[c].data(), prev_tiles[c], tiles[c],
            pipeline, scratch, nullptr);
        out.pair_ms.push_back((now_s() - t0) * 1e3);
      }
    }
    prev_tiles.swap(tiles);
    prev_spec.swap(spec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// What one workload run produced.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer values of one run; a layer a workload bypasses stays 0.
struct Layers {
  double reads = 0, read_s = 0;                          // imgio
  double forward_ms = 0, pair_ms = 0;                    // fft, pciam replay
  double phase1_s = 0, ffts_per_tile = 0, reads_per_tile = 0,
         inverse_ffts = 0, ccf_evals = 0, peak_live = 0,
         parallel_efficiency = 0;                        // stitch
  double steals = 0, enqueues = 0, pool_waits = 0;       // sched, vgpu
  double positions_s = 0, mosaic_s = 0;                  // compose
  double spectrum_hit_ratio = 0, pair_hit_ratio = 0, evictions = 0,
         resident_mb = 0, digest_ms = 0;                 // shared cache
  double queue_wait_frac = 0, run_frac = 0;              // serve

  std::vector<Metric> metrics() const {
    return {
        {"imgio.reads", reads, "count"},
        {"imgio.read_s", read_s, "s"},
        {"fft.forward_ms", forward_ms, "ms"},
        {"pciam.pair_ms", pair_ms, "ms"},
        {"stitch.phase1_s", phase1_s, "s"},
        {"stitch.forward_ffts_per_tile", ffts_per_tile, "ratio"},
        {"stitch.tile_reads_per_tile", reads_per_tile, "ratio"},
        {"stitch.inverse_ffts", inverse_ffts, "count"},
        {"stitch.ccf_evals", ccf_evals, "count"},
        {"stitch.peak_live_transforms", peak_live, "count"},
        {"stitch.parallel_efficiency", parallel_efficiency, "ratio"},
        {"sched.steals", steals, "count"},
        {"vgpu.enqueues", enqueues, "count"},
        {"vgpu.pool_waits", pool_waits, "count"},
        {"compose.positions_s", positions_s, "s"},
        {"compose.mosaic_s", mosaic_s, "s"},
        {"cache.spectrum_hit_ratio", spectrum_hit_ratio, "ratio"},
        {"cache.pair_hit_ratio", pair_hit_ratio, "ratio"},
        {"cache.evictions", evictions, "count"},
        {"cache.resident_mb", resident_mb, "MB"},
        {"cache.digest_ms", digest_ms, "ms"},
        {"serve.queue_wait_frac", queue_wait_frac, "ratio"},
        {"serve.run_frac", run_frac, "ratio"},
    };
  }
};

/// Sets the per-request OpCounts ratios and counts of `layers`.
void set_op_layers(Layers& layers, const stitch::OpCounts& ops,
                   std::size_t tiles) {
  const double n = static_cast<double>(tiles);
  layers.ffts_per_tile = static_cast<double>(ops.forward_ffts) / n;
  layers.reads_per_tile = static_cast<double>(ops.tile_reads) / n;
  layers.inverse_ffts = static_cast<double>(ops.inverse_ffts);
  layers.ccf_evals = static_cast<double>(ops.ccf_evaluations);
}

struct Outcome {
  std::vector<std::string> errors;  // failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  std::vector<double> latencies;  // timed requests, seconds
  double timed_s = 0.0;
  std::uint64_t tiles_done = 0;
  double peak_rss_mb = 0.0;
  double pos_err_px_max = 0.0;
  std::string signature;
  Layers layers;  // reported with --trace 1
};

void check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.errors.push_back(what);
}

/// Per-request layer-gap (share of latency no direct child span covers)
/// and per-name self time (span duration minus the union of its children).
struct TraceSummary {
  double max_gap_frac = 0.0;
  std::map<std::string, double> self_s;
  std::size_t spans_in_requests = 0;
};

double union_length(std::vector<std::pair<double, double>> iv, double lo,
                    double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cursor = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      cursor = b;
    }
  }
  return total;
}

TraceSummary summarize(const std::vector<Span>& spans,
                       const std::vector<long>& requests) {
  TraceSummary s;
  std::map<long, std::vector<std::pair<double, double>>> children;
  std::map<long, const Span*> by_id;
  for (const Span& sp : spans) {
    by_id[sp.id] = &sp;
    if (sp.parent != 0) children[sp.parent].emplace_back(sp.t0, sp.t1);
  }
  for (const Span& sp : spans) {
    if (sp.request == 0) continue;
    ++s.spans_in_requests;
    const double covered = union_length(children[sp.id], sp.t0, sp.t1);
    s.self_s[sp.name] += (sp.t1 - sp.t0) - covered;
  }
  for (long id : requests) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    const Span& r = *it->second;
    const double dur = r.t1 - r.t0;
    if (dur <= 0.0) continue;
    const double gap = 1.0 - union_length(children[id], r.t0, r.t1) / dur;
    s.max_gap_frac = std::max(s.max_gap_frac, gap);
  }
  return s;
}

/// Seconds one Scope costs when tracing is on (record + clock reads).
double span_cost_s() {
  Tracer probe(true);
  constexpr int kN = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kN; ++i) Scope s(probe, "probe", 0, 1);
  return (now_s() - t0) / kN;
}

// ---------------------------------------------------------------------------
// Plate workloads: one client, each request = phase 1 (stitch) + phase 2
// (resolve_positions, MST) + phase 3 (compose_mosaic) over a 6 x 6 grid of
// 520 x 696 tiles — half the paper's 1040 x 1392, keeping its FFT factors
// 13 and 29 (power-of-two tiles would hide the FFT layer).
// ---------------------------------------------------------------------------

struct PlateShape {
  stitch::ResourceSet resources;
  stitch::StitchOptions options;
  std::size_t executors = 1;
  bool from_disk = false;
};

struct PlateRequest {
  double latency = 0.0, phase1 = 0.0, positions = 0.0, mosaic = 0.0;
  stitch::StitchResult result;
  compose::GlobalPositions positions_out;
  std::uint32_t mosaic_crc = 0;
  WorkSignature work;
  double read_s = 0.0;
  std::uint64_t steals = 0, enqueues = 0, pool_waits = 0;
};

PlateRequest run_plate_request(const PlateShape& shape, TimedProvider& provider,
                               Tracer& tracer, long request_id) {
  PlateRequest out;
  const std::uint64_t steals0 = steals_total();
  const std::uint64_t enq0 =
      metrics::wellknown::vgpu_stream_enqueues_total().value();
  const std::uint64_t waits0 = metrics::wellknown::pool_wait_us().count();
  img::ImageU16 mosaic;
  {
    Scope request(tracer, "request", 0, request_id);
    {
      Scope s(tracer, "stitch.phase1", request.id(), request_id);
      provider.set_parent(s.id(), request_id);
      out.result = stitch::stitch(shape.resources, provider, shape.options);
      out.phase1 = s.elapsed();
    }
    {
      Scope s(tracer, "compose.positions", request.id(), request_id);
      out.positions_out = compose::resolve_positions(
          out.result.table, compose::Phase2Method::kMaximumSpanningTree);
      out.positions = s.elapsed();
    }
    {
      Scope s(tracer, "compose.mosaic", request.id(), request_id);
      provider.set_parent(s.id(), request_id);
      mosaic = compose::compose_mosaic(provider, out.positions_out,
                                       compose::BlendMode::kOverlay);
      out.mosaic = s.elapsed();
    }
    out.latency = request.elapsed();
  }
  out.mosaic_crc = crc32c(mosaic.data(), mosaic.pixel_count() * 2);
  const auto [reads, read_s] = provider.take_counts();
  out.work = WorkSignature{out.result.ops, reads};
  out.read_s = read_s;
  out.steals = steals_total() - steals0;
  out.enqueues =
      metrics::wellknown::vgpu_stream_enqueues_total().value() - enq0;
  out.pool_waits = metrics::wellknown::pool_wait_us().count() - waits0;
  return out;
}

Outcome run_plate(const PlateShape& shape, std::uint64_t seed, double seconds,
                  const std::string& work_dir, Tracer& tracer) {
  Outcome out;
  // Inputs (not timed): the synthetic plate, and for plate-disk its tiles
  // written as TIFF.
  sim::AcquisitionParams acq;
  acq.tile_height = 520;
  acq.tile_width = 696;
  acq.grid_rows = 6;
  acq.grid_cols = 6;
  acq.overlap_fraction = 0.1;
  acq.seed = seed * 2 + 1;
  sim::PlateParams plate;
  plate.seed = seed;
  const sim::SyntheticGrid grid = sim::make_synthetic_grid(acq, plate);
  const std::size_t tiles = grid.layout.tile_count();
  stitch::MemoryTileProvider memory(&grid.tiles, grid.layout);
  std::unique_ptr<img::TileGridDataset> dataset;
  if (shape.from_disk) {
    dataset = std::make_unique<img::TileGridDataset>(
        sim::write_dataset(grid, work_dir + "/tiles", "t_{r}_{c}.tif"));
  }

  // Set-up: from the first call into the library until the first request
  // completes; repeated from a cold plan cache, median reported.
  std::vector<double> setups;
  std::unique_ptr<stitch::DatasetTileProvider> disk;
  std::unique_ptr<TimedProvider> provider;
  long next_request = 1;
  PlateRequest first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fft::PlanCache::instance().clear();
    provider.reset();
    disk.reset();
    const double t0 = now_s();
    if (shape.from_disk) {
      disk = std::make_unique<stitch::DatasetTileProvider>(*dataset);
      provider = std::make_unique<TimedProvider>(*disk, tracer);
    } else {
      provider = std::make_unique<TimedProvider>(memory, tracer);
    }
    first = run_plate_request(shape, *provider, tracer, next_request++);
    setups.push_back(now_s() - t0);
  }
  out.setup_s = median(setups);

  // Timed phase: closed loop, one request at a time.
  reset_peak_rss();
  std::vector<PlateRequest> done;
  const double start = now_s();
  while (now_s() - start < seconds) {
    ++out.attempted;
    const long id = next_request++;
    try {
      done.push_back(run_plate_request(shape, *provider, tracer, id));
    } catch (const std::exception& e) {
      ++out.failed;
      std::printf("request failed: %s\n", e.what());
    }
  }
  out.timed_s = now_s() - start;
  out.peak_rss_mb = peak_rss_mb() - tiles_mb(grid.tiles);

  // Output checks, outside the timed phase.
  const Replay replay =
      replay_grid(memory, shape.options.use_real_fft, grid.layout.rows);
  check(out, same_pairs(first.result.table, replay.table),
        "warm-up table differs from the single-thread replay");
  for (const PlateRequest& r : done) {
    out.latencies.push_back(r.latency);
    out.tiles_done += tiles;
    check(out, same_pairs(r.result.table, first.result.table),
          "table differs between repeats of one input");
    check(out, r.mosaic_crc == first.mosaic_crc,
          "mosaic differs between repeats of one input");
    check(out, r.work == first.work,
          "work differs between requests: " + r.work.str() + " vs " +
              first.work.str());
    out.pos_err_px_max =
        std::max(out.pos_err_px_max,
                 position_error(r.positions_out, grid.truth.x, grid.truth.y));
  }
  out.signature = first.work.str();

  // Per-layer metrics.
  std::vector<double> phase1, positions, mosaic, read_s;
  Layers& l = out.layers;
  for (const PlateRequest& r : done) {
    phase1.push_back(r.phase1);
    positions.push_back(r.positions);
    mosaic.push_back(r.mosaic);
    read_s.push_back(r.read_s);
    l.steals += static_cast<double>(r.steals);
    l.enqueues += static_cast<double>(r.enqueues);
    l.pool_waits += static_cast<double>(r.pool_waits);
    l.peak_live = std::max(
        l.peak_live, static_cast<double>(r.result.peak_live_transforms));
  }
  const double n = std::max<double>(1.0, static_cast<double>(done.size()));
  l.steals /= n;
  l.enqueues /= n;
  l.pool_waits /= n;
  double replay_work_s = 0.0;
  for (double v : replay.forward_ms) replay_work_s += v * 1e-3;
  for (double v : replay.pair_ms) replay_work_s += v * 1e-3;
  l.reads = static_cast<double>(first.work.reads);
  l.read_s = median(read_s);
  l.forward_ms = median(replay.forward_ms);
  l.pair_ms = median(replay.pair_ms);
  l.phase1_s = median(phase1);
  set_op_layers(l, first.result.ops, tiles);
  l.parallel_efficiency =
      replay_work_s / (l.phase1_s * static_cast<double>(shape.executors));
  l.positions_s = median(positions);
  l.mosaic_s = median(mosaic);
  l.digest_ms = median(replay.digest_ms);
  return out;
}

// ---------------------------------------------------------------------------
// serve-window: live acquisition through the StitchService. Four clients,
// each streaming sliding 4 x 8 windows (260 x 348 tiles) down an 8-column
// strip of one tall plate, one row per job, closed loop, driven from one
// thread. The clients' cameras differ by a dark offset of one count, so
// their tiles (and shared-cache keys) are disjoint while the plate is
// generated once. Every timed job has exactly one new row and three rows the
// shared cache already holds, so hit/miss counts repeat exactly.
// ---------------------------------------------------------------------------

// Four clients on two workers: a resubmitted job waits for exactly two
// completions, one on each worker, so its queue wait is about one job time
// whatever the phase between the workers. With three clients it waits for
// one completion, and the wait depends on that phase, which changes from
// run to run.
constexpr std::size_t kClients = 4;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kStripCols = 8;
constexpr std::size_t kWindowRows = 4;
// Windows each client streams, untimed, to measure how fast clients advance
// on this host. The timed strip is sized from that rate with kStripSafety
// headroom, so the timed phase ends on --seconds, not on the strip's end;
// a client that still reaches the end fails the run.
constexpr std::size_t kCalibrationWindows = 6;
constexpr double kStripSafety = 2.0;
// Shared-cache capacity in rows of spectra: each client needs one row live
// between jobs, and the other clients insert at most a few rows meanwhile;
// anything older is evicted by the LRU.
constexpr std::size_t kCacheRows = 16;

/// A tall plate scanned as a `rows` x 8 strip of 260 x 348 tiles.
sim::SyntheticGrid make_strip(std::uint64_t seed, std::size_t rows) {
  sim::AcquisitionParams acq;
  acq.tile_height = 260;
  acq.tile_width = 348;
  acq.grid_rows = rows;
  acq.grid_cols = kStripCols;
  acq.overlap_fraction = 0.1;
  acq.seed = seed * 2 + 1;
  sim::PlateParams plate;
  plate.seed = seed;
  return sim::make_synthetic_grid(acq, plate);
}

/// One client's window of the strip, presented to the service as its own
/// grid, as that client's camera (dark offset `client` counts) records it.
class WindowProvider final : public stitch::TileProvider {
 public:
  WindowProvider(const std::vector<img::ImageU16>& strip, std::size_t client,
                 std::size_t row0)
      : strip_(strip),
        offset_(static_cast<std::uint16_t>(client)),
        row0_(row0) {}
  img::GridLayout layout() const override {
    return img::GridLayout{kWindowRows, kStripCols};
  }
  std::size_t tile_height() const override { return strip_[0].height(); }
  std::size_t tile_width() const override { return strip_[0].width(); }
  img::ImageU16 load(img::TilePos pos) const override {
    img::ImageU16 tile = strip_[(row0_ + pos.row) * kStripCols + pos.col];
    for (std::uint16_t& v : tile.pixels()) {
      v = static_cast<std::uint16_t>(std::min(65535, v + offset_));
    }
    return tile;
  }

 private:
  const std::vector<img::ImageU16>& strip_;
  std::uint16_t offset_;
  std::size_t row0_;
};

struct WindowJob {
  std::size_t client = 0;
  std::size_t row0 = 0;
  long request = 0;
  long run_span = 0;
  // This process's clock: around submit(), and when the client first sees
  // the job terminal.
  double submit_before = 0.0, submit_after = 0.0, observed = 0.0;
  std::unique_ptr<WindowProvider> window;
  std::unique_ptr<TimedProvider> timed;
  serve::JobHandle handle;
  // Filled on completion.
  bool ok = false;
  serve::JobTiming timing;
  stitch::StitchResult result;
  WorkSignature work;
  double read_s = 0.0;
};

/// Jobs one closed-loop stream of windows completed.
struct WindowStream {
  std::vector<std::unique_ptr<WindowJob>> done;
  std::uint64_t attempted = 0;
  double elapsed = 0.0;
  bool ran_out = false;  // a client reached the end of the strip
};

Outcome run_serve_window(std::uint64_t seed, double seconds, Tracer& tracer) {
  Outcome out;
  // Set-up and calibration input (not timed): a strip just long enough for
  // the calibration windows.
  const sim::SyntheticGrid small =
      make_strip(seed, kWindowRows + kCalibrationWindows);

  serve::ServiceConfig config;
  config.workers = kServeWorkers;
  config.shared_cache_bytes =
      kCacheRows * kStripCols * stitch::spectrum_entry_bytes(260, 348, true);
  stitch::StitchOptions options;
  options.threads = 2;
  options.use_real_fft = true;

  long next_request = 1;
  // Untimed jobs (set-up, calibration, priming) have no request, so their
  // reads are traced without one.
  auto submit = [&](serve::StitchService& service,
                    const std::vector<img::ImageU16>& strip,
                    std::size_t client, std::size_t row0, bool timed) {
    auto job = std::make_unique<WindowJob>();
    job->client = client;
    job->row0 = row0;
    job->request = timed ? next_request++ : 0;
    job->run_span = timed && tracer.enabled() ? tracer.new_id() : 0;
    job->window = std::make_unique<WindowProvider>(strip, client, row0);
    job->timed = std::make_unique<TimedProvider>(*job->window, tracer);
    job->timed->set_parent(job->run_span, job->request);
    serve::StitchJob sj;
    sj.name = "c" + std::to_string(client) + "-r" + std::to_string(row0);
    sj.backend = stitch::Backend::kMtCpu;
    sj.provider = job->timed.get();
    sj.options = options;
    job->submit_before = now_s();
    job->handle = service.submit(std::move(sj));
    job->submit_after = now_s();
    return job;
  };
  auto finish = [&](WindowJob& job) {
    try {
      job.result = job.handle.wait();
      job.ok = true;
    } catch (const std::exception& e) {
      std::printf("job failed: %s\n", e.what());
      check(out, job.request != 0,
            "untimed job failed (client " + std::to_string(job.client) +
                ", row " + std::to_string(job.row0) + ")");
    }
    job.timing = job.handle.timing();
    const auto [reads, read_s] = job.timed->take_counts();
    job.work = WorkSignature{job.result.ops, reads};
    job.read_s = read_s;
  };
  // One cold window (row 0) per client, waited for.
  auto cold_windows = [&](serve::StitchService& service,
                          const std::vector<img::ImageU16>& strip) {
    std::vector<std::unique_ptr<WindowJob>> jobs;
    for (std::size_t k = 0; k < kClients; ++k) {
      jobs.push_back(submit(service, strip, k, 0, false));
    }
    for (auto& job : jobs) finish(*job);
  };
  // Closed loop from row 1: each client submits its next window as soon as
  // its previous one is terminal, until `limit_s` passes or a client reaches
  // the end of `strip`. From then on no client submits again, so every
  // client stays in the loop until the stream ends.
  auto stream = [&](serve::StitchService& service,
                    const std::vector<img::ImageU16>& strip, double limit_s,
                    bool timed) {
    const std::size_t rows = strip.size() / kStripCols;
    WindowStream s;
    std::vector<std::unique_ptr<WindowJob>> inflight(kClients);
    std::vector<std::size_t> next_row(kClients, 1);
    const double start = now_s();
    for (std::size_t k = 0; k < kClients; ++k) {
      inflight[k] = submit(service, strip, k, next_row[k]++, timed);
      ++s.attempted;
    }
    bool stopping = false;
    for (;;) {
      bool any = false;
      for (std::size_t k = 0; k < kClients; ++k) {
        if (!inflight[k]) continue;
        any = true;
        if (!serve::is_terminal(inflight[k]->handle.state())) continue;
        inflight[k]->observed = now_s();
        finish(*inflight[k]);
        s.done.push_back(std::move(inflight[k]));
        if (!stopping && now_s() - start >= limit_s) stopping = true;
        if (!stopping && next_row[k] + kWindowRows > rows) {
          stopping = true;
          s.ran_out = true;
        }
        if (!stopping) {
          inflight[k] = submit(service, strip, k, next_row[k]++, timed);
          ++s.attempted;
        }
      }
      if (!any) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    s.elapsed = now_s() - start;
    return s;
  };

  // Set-up: service start plus one cold window per client, repeated from a
  // cold plan cache with a fresh service, median reported.
  std::vector<double> setups;
  std::unique_ptr<serve::StitchService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    fft::PlanCache::instance().clear();
    const double t0 = now_s();
    service = std::make_unique<serve::StitchService>(config);
    cold_windows(*service, small.tiles);
    setups.push_back(now_s() - t0);
  }
  out.setup_s = median(setups);

  // Calibration (not timed): how many rows a client advances per second.
  const WindowStream calibration = stream(
      *service, small.tiles, std::numeric_limits<double>::infinity(), false);
  const double rows_per_s = static_cast<double>(calibration.done.size()) /
                            static_cast<double>(kClients) /
                            calibration.elapsed;
  const auto strip_rows = kWindowRows + static_cast<std::size_t>(std::ceil(
                                            rows_per_s * seconds * kStripSafety));
  std::printf("calibration: %.2f rows/s per client, timed strip %zu rows\n",
              rows_per_s, strip_rows);

  // Timed input (not timed): the strip, primed with each client's row-0
  // window so the first timed job already finds three rows cached.
  const sim::SyntheticGrid grid = make_strip(seed, strip_rows);
  const std::vector<img::ImageU16>& strip = grid.tiles;
  cold_windows(*service, strip);

  reset_peak_rss();
  const auto cache0 = service->shared_cache()->stats();
  WindowStream timed = stream(*service, strip, seconds, true);
  out.timed_s = timed.elapsed;
  out.peak_rss_mb = peak_rss_mb() - tiles_mb(small.tiles) - tiles_mb(strip);
  const auto cache1 = service->shared_cache()->stats();
  out.attempted = timed.attempted;
  std::vector<std::unique_ptr<WindowJob>>& done = timed.done;
  for (const auto& job : done) {
    if (!job->ok) ++out.failed;
  }
  check(out, !timed.ran_out,
        "a client reached the end of the " + std::to_string(strip_rows) +
            "-row strip after " + json_number(timed.elapsed) +
            " s, before --seconds");
  check(out, done.size() >= kMinServeJobs,
        "serve-window completed " + std::to_string(done.size()) +
            " timed jobs, fewer than the " + std::to_string(kMinServeJobs) +
            " a p90 needs (strip too short or host too slow)");

  // Output checks, outside the timed phase. Each client's first and last
  // timed windows are checked against a single-thread replay; every window
  // must agree with the windows it overlaps on each shared pair, and its
  // resolved positions must match ground truth.
  std::vector<std::size_t> last_row(kClients, 0);
  for (const auto& job : done) {
    if (job->ok) {
      last_row[job->client] = std::max(last_row[job->client], job->row0);
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, Replay> replays;
  Replay layer_replay;
  for (std::size_t k = 0; k < kClients; ++k) {
    for (std::size_t row0 : {std::size_t{1}, last_row[k]}) {
      if (row0 == 0 || replays.count({k, row0}) != 0) continue;
      Replay r = replay_grid(WindowProvider(strip, k, row0), true, kWindowRows);
      const auto append = [](std::vector<double>& dst,
                             const std::vector<double>& src) {
        dst.insert(dst.end(), src.begin(), src.end());
      };
      append(layer_replay.forward_ms, r.forward_ms);
      append(layer_replay.pair_ms, r.pair_ms);
      append(layer_replay.digest_ms, r.digest_ms);
      replays.emplace(std::make_pair(k, row0), std::move(r));
    }
  }
  std::vector<double> positions_s;
  std::vector<compose::GlobalPositions> last_positions(kClients);
  // (client, strip row, col, is_west) -> the translation first seen.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, bool>,
           stitch::Translation>
      seen;
  const WorkSignature expected = done.empty() ? WorkSignature{} : done[0]->work;
  for (const auto& job : done) {
    if (!job->ok) continue;
    out.latencies.push_back(job->timing.latency_us() * 1e-6);
    out.tiles_done += kWindowRows * kStripCols;
    const stitch::DisplacementTable& table = job->result.table;
    const auto ref = replays.find({job->client, job->row0});
    if (ref != replays.end()) {
      check(out, same_pairs(table, ref->second.table),
            "window table differs from its replay (client " +
                std::to_string(job->client) + ", row " +
                std::to_string(job->row0) + ")");
    }
    bool consistent = true;
    for (std::size_t r = 0; r < kWindowRows; ++r) {
      for (std::size_t c = 0; c < kStripCols; ++c) {
        const img::TilePos w{r, c};
        for (bool west : {true, false}) {
          if (west ? c == 0 : r == 0) continue;
          const stitch::Translation& t =
              west ? table.west_of(w) : table.north_of(w);
          const auto [it, fresh] = seen.emplace(
              std::make_tuple(job->client, job->row0 + r, c, west), t);
          if (!fresh && !(it->second == t)) consistent = false;
        }
      }
    }
    check(out, consistent,
          "overlapping windows disagree on a shared pair (client " +
              std::to_string(job->client) + ", row " +
              std::to_string(job->row0) + ")");
    check(out, job->work == expected,
          "work differs between jobs: " + job->work.str() + " vs " +
              expected.str());
    const double t0 = now_s();
    compose::GlobalPositions pos = compose::resolve_positions(
        table, compose::Phase2Method::kMaximumSpanningTree);
    positions_s.push_back(now_s() - t0);
    const auto first = grid.truth.x.begin() +
                       static_cast<std::ptrdiff_t>(job->row0 * kStripCols);
    const auto first_y = grid.truth.y.begin() +
                         static_cast<std::ptrdiff_t>(job->row0 * kStripCols);
    const std::vector<std::int64_t> tx(first, first + kWindowRows * kStripCols);
    const std::vector<std::int64_t> ty(first_y,
                                       first_y + kWindowRows * kStripCols);
    out.pos_err_px_max =
        std::max(out.pos_err_px_max, position_error(pos, tx, ty));
    if (job->row0 == last_row[job->client]) {
      last_positions[job->client] = std::move(pos);
    }
  }
  out.signature = expected.str();

  // Shared-cache counts must be the per-job pattern times the job count.
  const double jobs = static_cast<double>(done.size());
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double sp_hits = d(cache0.spectrum_hits, cache1.spectrum_hits);
  const double sp_miss = d(cache0.spectrum_misses, cache1.spectrum_misses);
  const double pr_hits = d(cache0.pair_hits, cache1.pair_hits);
  const double pr_miss = d(cache0.pair_misses, cache1.pair_misses);
  const double evictions = d(cache0.evictions, cache1.evictions);
  for (double v : {sp_hits, sp_miss, pr_hits, pr_miss}) {
    check(out, std::fmod(v, std::max(1.0, jobs)) == 0.0,
          "shared-cache hit/miss counts are not the same for every job");
  }
  out.signature += " sp_hits/job=" + std::to_string(sp_hits / jobs) +
                   " sp_miss/job=" + std::to_string(sp_miss / jobs) +
                   " pair_hits/job=" + std::to_string(pr_hits / jobs) +
                   " pair_miss/job=" + std::to_string(pr_miss / jobs);

  // One window mosaic per client, as a live viewer would render it.
  std::vector<double> mosaic_s;
  for (std::size_t k = 0; k < kClients; ++k) {
    WindowProvider window(strip, k, last_row[k]);
    const double t0 = now_s();
    (void)compose::compose_mosaic(window, last_positions[k],
                                  compose::BlendMode::kOverlay);
    mosaic_s.push_back(now_s() - t0);
  }

  // Trace: the request span is what the client saw, from just before
  // submit() until it found the job terminal; the service's own timing,
  // shifted onto this clock, places the queue and run spans inside it.
  std::vector<double> queue_s, run_s, read_s;
  double offset_lo = -1e300, offset_hi = 1e300;
  for (const auto& job : done) {
    const double s = job->timing.submit_us * 1e-6;
    offset_lo = std::max(offset_lo, job->submit_before - s);
    offset_hi = std::min(offset_hi, job->submit_after - s);
  }
  const double offset = 0.5 * (offset_lo + offset_hi);
  for (const auto& job : done) {
    if (!job->ok) continue;
    const serve::JobTiming& t = job->timing;
    queue_s.push_back(t.queued_us() * 1e-6);
    run_s.push_back(t.run_us() * 1e-6);
    read_s.push_back(job->read_s);
    if (tracer.enabled()) {
      const long req_span = tracer.new_id();
      const double a = t.submit_us * 1e-6 + offset;
      const double b = t.start_us * 1e-6 + offset;
      const double e = t.end_us * 1e-6 + offset;
      tracer.record("request", job->submit_before, job->observed, req_span, 0,
                    job->request);
      tracer.record("serve.queue", a, b, tracer.new_id(), req_span,
                    job->request);
      tracer.record("serve.run", b, e, job->run_span, req_span, job->request);
    }
  }

  Layers& l = out.layers;
  l.reads = static_cast<double>(expected.reads);
  l.read_s = median(read_s);
  l.forward_ms = median(layer_replay.forward_ms);
  l.pair_ms = median(layer_replay.pair_ms);
  l.phase1_s = median(run_s);
  set_op_layers(l, expected.ops, kWindowRows * kStripCols);
  for (const auto& job : done) {
    l.peak_live = std::max(
        l.peak_live, static_cast<double>(job->result.peak_live_transforms));
  }
  // A job's own compute: its new row's forward FFTs and its new pairs.
  const double per_job = 1.0 / std::max(1.0, jobs);
  const double job_work_s =
      (sp_miss * per_job * l.forward_ms + pr_miss * per_job * l.pair_ms) *
      1e-3;
  l.parallel_efficiency =
      job_work_s / (l.phase1_s * static_cast<double>(options.threads));
  l.positions_s = median(positions_s);
  l.mosaic_s = median(mosaic_s);
  l.spectrum_hit_ratio = sp_hits / std::max(1.0, sp_hits + sp_miss);
  l.pair_hit_ratio = pr_hits / std::max(1.0, pr_hits + pr_miss);
  l.evictions = evictions * per_job;
  l.resident_mb = static_cast<double>(cache1.resident_bytes) / (1 << 20);
  l.digest_ms = median(layer_replay.digest_ms);
  const double latency_p50 = median(out.latencies);
  l.queue_wait_frac = median(queue_s) / latency_p50;
  l.run_frac = l.phase1_s / latency_p50;
  return out;
}

// ---------------------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<plate-disk|plate-hybrid|serve-window> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (workload.empty() || work_dir.empty() || !(seconds > 0.0)) {
    return usage("missing --workload, --work-dir or a positive --seconds");
  }
  std::filesystem::create_directories(work_dir);

  Tracer tracer(trace);
  Outcome out;
  try {
    if (workload == "plate-disk" || workload == "plate-hybrid") {
      PlateShape shape;
      if (workload == "plate-disk") {
        // The paper's MT-CPU algorithm: nproc workers, complex FFTs.
        const std::size_t n =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        shape.options.threads = n;
        shape.resources =
            stitch::ResourceSet::for_backend(stitch::Backend::kMtCpu,
                                             shape.options);
        shape.executors = n;
        shape.from_disk = true;
      } else {
        // The paper's hybrid headline: 2 CPU workers + 1 vGPU, stealing,
        // batched vgpu dispatch, real-to-complex FFTs on both sides.
        shape.options.use_real_fft = true;
        shape.options.ccf_threads = 1;
        shape.options.gpu_count = 1;
        shape.resources.cpu_workers = 2;
        shape.resources.gpu_devices = 1;
        shape.resources.steal_threshold = 1;
        shape.resources.gpu_batch_pairs = 4;
        shape.resources.label = "hybrid";
        shape.executors = 3;
      }
      out = run_plate(shape, seed, seconds, work_dir, tracer);
    } else if (workload == "serve-window") {
      out = run_serve_window(seed, seconds, tracer);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  check(out, !out.latencies.empty(), "no request completed");
  check(out, out.failed == 0,
        std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
            " requests failed");
  check(out, out.pos_err_px_max <= kMaxPositionErrorPx,
        "position error " + json_number(out.pos_err_px_max) + " px above " +
            json_number(kMaxPositionErrorPx));
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", out.setup_s, "s"},
        {"latency_p50_s", median(out.latencies), "s"},
        {"latency_p90_s", quantile(out.latencies, 0.9), "s"},
        {"tiles_per_s", static_cast<double>(out.tiles_done) / out.timed_s,
         "1/s"},
        {"peak_rss_mb", out.peak_rss_mb, "MB"},
    };
  } else {
    const auto spans = tracer.spans();
    std::vector<long> requests;
    for (const Span& s : spans) {
      if (std::string(s.name) == "request") requests.push_back(s.id);
    }
    const TraceSummary summary = summarize(spans, requests);
    check(out, summary.max_gap_frac <= kLayerGapTolerance,
          "layer spans leave " + json_number(summary.max_gap_frac) +
              " of a request unexplained, above the " +
              json_number(kLayerGapTolerance) + " tolerance");
    metrics = out.layers.metrics();
    metrics.push_back({"trace.overhead_frac",
                       static_cast<double>(summary.spans_in_requests) *
                           span_cost_s() / out.timed_s,
                       "ratio"});
    metrics.push_back({"trace.layer_gap_frac", summary.max_gap_frac, "ratio"});
    std::printf("self time per request, traced run (%zu requests):\n",
                requests.size());
    for (const auto& [name, s] : summary.self_s) {
      std::printf("  %-22s %10.6f s\n", name.c_str(),
                  s / std::max<double>(1.0, requests.size()));
    }
    tracer.write_json(work_dir + "/trace.json");
  }

  std::printf(
      "%s: %zu timed requests in %.3f s, setup %.3f s, failed_frac %.6f, "
      "pos_err_px_max %.3f\nwork per request: %s\n",
      workload.c_str(), out.latencies.size(), out.timed_s, out.setup_s,
      failed_frac, out.pos_err_px_max, out.signature.c_str());
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
