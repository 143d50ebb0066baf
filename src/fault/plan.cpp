#include "fault/plan.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/error.hpp"
#include "common/file.hpp"

namespace hs::fault {

namespace {

// SplitMix64 finalizer — the same mixer common/rng.hpp uses for seeding.
// Good avalanche, so consecutive (key, attempt) pairs decorrelate.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double to_unit(std::uint64_t x) {
  // Top 53 bits -> [0, 1).
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

std::string site_name(Site site) {
  switch (site) {
    case Site::kTileRead: return "tile_read";
    case Site::kDeviceAlloc: return "device_alloc";
    case Site::kStreamExec: return "stream_exec";
    case Site::kJournalWrite: return "journal_write";
    case Site::kCheckpointCorrupt: return "checkpoint_corrupt";
    case Site::kSpillWrite: return "spill_write";
    case Site::kSpillRead: return "spill_read";
  }
  return "?";
}

void apply_corruption(const std::string& path, const Corruption& c) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) throw IoError("cannot open for corruption: " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    throw IoError("cannot size for corruption: " + path);
  }
  const auto usize = static_cast<std::uint64_t>(size);
  bool ok = true;
  if (c.kind == Corruption::Kind::kBitFlip) {
    if (c.at_byte < usize) {
      std::fseek(file, static_cast<long>(c.at_byte), SEEK_SET);
      const int byte = std::fgetc(file);
      std::fseek(file, static_cast<long>(c.at_byte), SEEK_SET);
      ok = byte != EOF && std::fputc(byte ^ 1, file) != EOF;
    }
    ok = ok && std::fclose(file) == 0;
  } else {
    ok = std::fclose(file) == 0;
    if (ok && c.at_byte < usize) {
      ok = truncate_file(path, c.at_byte);
    }
  }
  if (!ok) throw IoError("corruption write failed: " + path);
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {}

void FaultPlan::set_transient_rate(Site site, double probability) {
  HS_REQUIRE(probability >= 0.0 && probability <= 1.0,
             "fault rate must be in [0, 1]");
  state(site).rate.store(probability, std::memory_order_relaxed);
}

void FaultPlan::fail_from_nth(Site site, std::uint64_t n) {
  state(site).fail_from.store(n, std::memory_order_relaxed);
}

void FaultPlan::fail_key_permanently(Site site, std::uint64_t key) {
  SiteState& s = state(site);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.bad_keys.insert(key);
}

void FaultPlan::corrupt_from_nth(Site site, std::uint64_t n,
                                 const Corruption& c) {
  SiteState& s = state(site);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.corruption = c;
  }
  s.corrupt_from.store(n, std::memory_order_release);
}

bool FaultPlan::corruption_point(Site site, Corruption* out) {
  SiteState& s = state(site);
  const std::uint64_t occurrence =
      s.corrupt_occurrences.fetch_add(1, std::memory_order_relaxed);
  if (occurrence < s.corrupt_from.load(std::memory_order_acquire)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    *out = s.corruption;
  }
  s.injected.fetch_add(1, std::memory_order_relaxed);
  trace_event(site, "corrupt");
  return true;
}

bool FaultPlan::should_fail(Site site, std::uint64_t key) {
  SiteState& s = state(site);
  const std::uint64_t occurrence =
      s.occurrences.fetch_add(1, std::memory_order_relaxed);

  bool fail = occurrence >= s.fail_from.load(std::memory_order_relaxed);
  if (!fail) {
    const double rate = s.rate.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.bad_keys.count(key) != 0) {
      fail = true;
    } else if (rate > 0.0) {
      // Per-key attempt counter: the Nth look at a key rolls a different
      // die than the (N-1)th, so retries of a transient fault can heal —
      // and cached backends stay deterministic regardless of thread timing.
      const std::uint64_t attempt = s.attempts[key]++;
      const std::uint64_t h = mix(
          mix(mix(seed_ ^ static_cast<std::uint64_t>(site)) ^ key) ^ attempt);
      fail = to_unit(h) < rate;
    }
  }

  if (fail) {
    s.injected.fetch_add(1, std::memory_order_relaxed);
    trace_event(site, "inject");
  }
  return fail;
}

void FaultPlan::set_delay_us(Site site, std::uint64_t delay_us) {
  set_delay_us(site, delay_us, std::string{});
}

void FaultPlan::set_delay_us(Site site, std::uint64_t delay_us,
                             const std::string& scope_prefix) {
  SiteState& s = state(site);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.delay_scope = scope_prefix;
  }
  s.delay_us.store(delay_us, std::memory_order_relaxed);
}

void FaultPlan::hang_from_nth(Site site, std::uint64_t n) {
  state(site).hang_from.store(n, std::memory_order_relaxed);
}

void FaultPlan::release_hangs() {
  {
    std::lock_guard<std::mutex> lock(hang_mutex_);
    hangs_released_ = true;
  }
  hang_cv_.notify_all();
}

bool FaultPlan::hang_point(Site site, const pipe::CancelToken* cancel,
                           const std::string& scope) {
  SiteState& s = state(site);
  std::uint64_t delay = s.delay_us.load(std::memory_order_relaxed);
  const std::uint64_t occurrence =
      s.hang_occurrences.fetch_add(1, std::memory_order_relaxed);

  if (delay > 0) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.delay_scope.empty() && scope.rfind(s.delay_scope, 0) != 0) {
      delay = 0;
    }
  }
  if (delay > 0) {
    // Chunked so a stopping job is not pinned behind a long injected delay.
    std::uint64_t slept = 0;
    while (slept < delay) {
      if (cancel != nullptr && cancel->stop_requested()) break;
      const std::uint64_t chunk = std::min<std::uint64_t>(delay - slept, 2000);
      std::this_thread::sleep_for(std::chrono::microseconds(chunk));
      slept += chunk;
    }
  }

  if (occurrence < s.hang_from.load(std::memory_order_relaxed)) return false;

  s.hangs.fetch_add(1, std::memory_order_relaxed);
  trace_event(site, "hang");
  std::unique_lock<std::mutex> lock(hang_mutex_);
  while (!hangs_released_ &&
         (cancel == nullptr || !cancel->stop_requested())) {
    hang_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  lock.unlock();
  trace_event(site, "hang_interrupted");
  return true;
}

std::uint64_t FaultPlan::hangs_triggered(Site site) const {
  return state(site).hangs.load(std::memory_order_relaxed);
}

void FaultPlan::note_handled(Site site) {
  state(site).handled.fetch_add(1, std::memory_order_relaxed);
  trace_event(site, "handled");
}

void FaultPlan::trace_event(Site site, const char* what) {
  trace::Recorder* recorder = recorder_;
  if (recorder == nullptr) return;
  const double t = recorder->now_us();
  recorder->record("fault", site_name(site) + ":" + what, t, t);
}

std::uint64_t FaultPlan::injected(Site site) const {
  return state(site).injected.load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::handled(Site site) const {
  return state(site).handled.load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::injected_total() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    total += states_[i].injected.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t FaultPlan::handled_total() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    total += states_[i].handled.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace hs::fault
