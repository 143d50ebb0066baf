#include "stitch/spectrum_store.hpp"

#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/file.hpp"
#include "fft/types.hpp"
#include "metrics/wellknown.hpp"

namespace hs::stitch {

namespace fs = std::filesystem;

namespace {

// "HSSF" / "HSPR" read as little-endian u32s; both frame kinds use the
// common frame layout (common/file.hpp).
constexpr std::uint32_t kSpectrumMagic = 0x46535348u;
constexpr std::uint32_t kPairMagic = 0x52505348u;
// digest u64 + height u32 + width u32 + real u8 + tier u8 + revision u16 +
// bin_count u64, ahead of the raw bins. Pair records carry the same
// revision u16 after their tier byte. The revision is
// fft::kTransformRevision of the build that computed the bits; frames
// written before it existed read 0 there.
constexpr std::size_t kSpectrumHeaderBytes = 28;
constexpr std::size_t kPairPayloadBytes = 64;
// A garbage length field must not make recovery allocate gigabytes; 256 MiB
// covers a 4Kx4K complex spectrum with room to spare.
constexpr std::uint32_t kMaxPayload = 256u << 20;
constexpr std::size_t kSimdTierCount = 3;  // common::SimdTier vocabulary

std::string spectrum_payload(const SpectrumKey& key,
                             const std::vector<fft::Complex>& bins) {
  std::string payload;
  payload.reserve(kSpectrumHeaderBytes + bins.size() * sizeof(fft::Complex));
  put_u64(payload, key.digest);
  put_u32(payload, key.height);
  put_u32(payload, key.width);
  payload.push_back(key.real_fft ? 1 : 0);
  payload.push_back(static_cast<char>(key.tier));
  put_u16(payload, fft::kTransformRevision);
  put_u64(payload, bins.size());
  // Raw IEEE bytes round-trip bit-exactly, which is what keeps spill hits
  // inside the backends' bit-identity guarantees.
  payload.append(reinterpret_cast<const char*>(bins.data()),
                 bins.size() * sizeof(fft::Complex));
  return payload;
}

/// Full-frame validation: one frame filling the whole file (magic, length,
/// CRC32C) and a self-consistent header. Fills *key and *revision on
/// success.
bool validate_spectrum_file(const std::string& contents, SpectrumKey* key,
                            std::uint16_t* revision) {
  std::string_view payload;
  const auto keep = [&](std::string_view frame) {
    payload = frame;
    return true;
  };
  if (scan_frames(contents, kSpectrumMagic, kMaxPayload, keep) !=
          contents.size() ||
      contents.size() != kFrameHeaderBytes + payload.size() ||
      payload.size() < kSpectrumHeaderBytes) {
    return false;
  }
  const char* p = payload.data();
  key->digest = get_u64(p);
  key->height = get_u32(p + 8);
  key->width = get_u32(p + 12);
  key->real_fft = p[16] != 0;
  const auto tier = static_cast<unsigned char>(p[17]);
  if (tier >= kSimdTierCount) return false;
  key->tier = static_cast<common::SimdTier>(tier);
  *revision = get_u16(p + 18);
  const std::size_t bin_bytes = payload.size() - kSpectrumHeaderBytes;
  return bin_bytes % sizeof(fft::Complex) == 0 &&
         get_u64(p + 20) == bin_bytes / sizeof(fft::Complex);
}

}  // namespace

SpectrumStore::SpectrumStore(Config config)
    : config_(std::move(config)),
      metric_hits_(metrics::wellknown::spill_hits()),
      metric_misses_(metrics::wellknown::spill_misses()),
      metric_bytes_written_(metrics::wellknown::spill_bytes_written()),
      metric_bytes_read_(metrics::wellknown::spill_bytes_read()),
      metric_corrupt_(metrics::wellknown::spill_corrupt_frames()),
      metric_write_failures_(metrics::wellknown::spill_write_failures()),
      metric_frames_(metrics::wellknown::spill_frames()) {
  HS_REQUIRE(!config_.dir.empty(), "spill dir: must not be empty");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw IoError("cannot create spill dir " + config_.dir + ": " +
                  ec.message());
  }
  recover();
  pair_log_.emplace(pair_log_path(), kPairMagic);
}

SpectrumStore::~SpectrumStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  pair_log_->fsync();
  metric_frames_.add(-static_cast<std::int64_t>(index_.size()));
}

void SpectrumStore::recover() {
  // Startup GC + warm-start index: orphaned .tmp files (a crash between
  // write and rename) are deleted, every .spec frame is fully validated
  // (corrupt ones deleted and counted — they must recompute, never load),
  // frames another transform revision wrote are deleted as stale, and the
  // pair log replays up to its first damaged record.
  std::vector<std::string> tmp_files;
  std::vector<std::string> spectrum_files;
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      tmp_files.push_back(entry.path().string());
    } else if (name.ends_with(".spec")) {
      spectrum_files.push_back(entry.path().string());
    }
  }
  for (const std::string& path : tmp_files) {
    if (std::remove(path.c_str()) == 0) ++stats_.gc_removed;
  }
  for (const std::string& path : spectrum_files) {
    std::string contents;
    SpectrumKey key;
    std::uint16_t revision = 0;
    if (read_file(path, &contents) &&
        validate_spectrum_file(contents, &key, &revision)) {
      if (revision == fft::kTransformRevision &&
          index_.emplace(key, path).second) {
        metric_frames_.add(1);
        continue;
      }
    } else {
      ++stats_.corrupt_frames;
      metric_corrupt_.add();
    }
    // Corrupt, unreadable, stale (another transform revision's bits), or a
    // duplicate of an already-indexed key.
    if (std::remove(path.c_str()) == 0) ++stats_.gc_removed;
  }
  stats_.spectrum_frames = index_.size();
  replay_pair_log();
}

void SpectrumStore::replay_pair_log() {
  const FrameLog::Replay replay = FrameLog::replay(
      pair_log_path(), kPairMagic, kPairPayloadBytes,
      [&](std::string_view payload) {
        if (payload.size() != kPairPayloadBytes) return false;
        const char* q = payload.data();
        // Intact, but another transform revision computed it: skip the
        // record and keep replaying; the log is not cut here.
        if (get_u16(q + 26) != fft::kTransformRevision) return true;
        PairKey key;
        key.digest_reference = get_u64(q);
        key.digest_moved = get_u64(q + 8);
        key.height = get_u32(q + 16);
        key.width = get_u32(q + 20);
        key.real_fft = q[24] != 0;
        const auto tier = static_cast<unsigned char>(q[25]);
        if (tier >= kSimdTierCount) return false;
        key.tier = static_cast<common::SimdTier>(tier);
        key.peak_candidates = get_u32(q + 28);
        key.min_overlap_px = static_cast<std::int64_t>(get_u64(q + 32));
        Translation value;
        value.x = static_cast<std::int64_t>(get_u64(q + 40));
        value.y = static_cast<std::int64_t>(get_u64(q + 48));
        const std::uint64_t corr_bits = get_u64(q + 56);
        std::memcpy(&value.correlation, &corr_bits, sizeof(corr_bits));
        pairs_[key] = value;
        return true;
      });
  if (replay.torn()) {
    // Torn or bit-flipped tail, now cut: count it and keep the valid
    // prefix — the lost pairs recompute, a damaged one never replays.
    ++stats_.corrupt_frames;
    metric_corrupt_.add();
  }
  stats_.pairs = pairs_.size();
}

bool SpectrumStore::put(const SpectrumKey& key,
                        const std::vector<fft::Complex>& bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) != index_.end()) return true;  // content-addressed
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillWrite, key.digest)) {
    // Simulated ENOSPC/EIO: drop the spill, keep the job alive — the cache
    // degrades to memory-only for this spectrum.
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  const std::string frame =
      encode_frame(kSpectrumMagic, spectrum_payload(key, bins));
  const std::string path = frame_path(key);
  const auto damage = [this](const std::string& tmp) {
    // Short write / bit rot lands in the frame just written; load() and
    // recover() must detect it via CRC and recompute, never trust it.
    fault::Corruption at;
    if (config_.faults != nullptr &&
        config_.faults->corruption_point(fault::Site::kSpillWrite, &at)) {
      fault::apply_corruption(tmp, at);
    }
  };
  if (!publish_file(path, frame, damage)) {
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  index_.emplace(key, path);
  stats_.spectrum_frames = index_.size();
  metric_frames_.add(1);
  stats_.bytes_written += frame.size();
  metric_bytes_written_.add(static_cast<std::int64_t>(frame.size()));
  return true;
}

SpectrumStore::SpectrumPtr SpectrumStore::load(const SpectrumKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto miss = [&] {
    ++stats_.misses;
    metric_misses_.add();
  };
  auto it = index_.find(key);
  if (it == index_.end()) {
    miss();
    return nullptr;
  }
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillRead, key.digest)) {
    miss();  // transient I/O error: recompute now, keep the frame on disk
    return nullptr;
  }
  std::string contents;
  SpectrumKey parsed;
  std::uint16_t revision = 0;
  const bool ok = read_file(it->second, &contents) &&
                  validate_spectrum_file(contents, &parsed, &revision) &&
                  parsed == key && revision == fft::kTransformRevision;
  if (!ok) {
    // Damaged or unreadable frame: delete it and demote to a miss — the
    // spectrum recomputes from the tile, a wrong table is impossible.
    std::remove(it->second.c_str());
    index_.erase(it);
    stats_.spectrum_frames = index_.size();
    metric_frames_.add(-1);
    ++stats_.corrupt_frames;
    metric_corrupt_.add();
    miss();
    return nullptr;
  }
  constexpr std::size_t kBinsAt = kFrameHeaderBytes + kSpectrumHeaderBytes;
  auto bins = std::make_shared<std::vector<fft::Complex>>(
      (contents.size() - kBinsAt) / sizeof(fft::Complex));
  std::memcpy(bins->data(), contents.data() + kBinsAt,
              bins->size() * sizeof(fft::Complex));
  ++stats_.hits;
  metric_hits_.add();
  stats_.bytes_read += contents.size();
  metric_bytes_read_.add(static_cast<std::int64_t>(contents.size()));
  return bins;
}

bool SpectrumStore::contains(const SpectrumKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

void SpectrumStore::put_pair(const PairKey& key, const Translation& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pairs_.find(key) != pairs_.end()) return;  // first writer wins
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillWrite,
                                  key.digest_reference ^ key.digest_moved)) {
    ++stats_.write_failures;
    metric_write_failures_.add();
    return;
  }
  if (append_pair_locked(key, value)) {
    pairs_.emplace(key, value);
    stats_.pairs = pairs_.size();
  }
}

bool SpectrumStore::append_pair_locked(const PairKey& key,
                                       const Translation& value) {
  std::string payload;
  payload.reserve(kPairPayloadBytes);
  put_u64(payload, key.digest_reference);
  put_u64(payload, key.digest_moved);
  put_u32(payload, key.height);
  put_u32(payload, key.width);
  payload.push_back(key.real_fft ? 1 : 0);
  payload.push_back(static_cast<char>(key.tier));
  put_u16(payload, fft::kTransformRevision);
  put_u32(payload, key.peak_candidates);
  put_u64(payload, static_cast<std::uint64_t>(key.min_overlap_px));
  put_u64(payload, static_cast<std::uint64_t>(value.x));
  put_u64(payload, static_cast<std::uint64_t>(value.y));
  std::uint64_t corr_bits = 0;
  std::memcpy(&corr_bits, &value.correlation, sizeof(corr_bits));
  put_u64(payload, corr_bits);
  FrameLog::Damage damage;
  if (config_.faults != nullptr) {
    damage = [this](std::uint64_t offset) {
      // Damage the record just appended (at_byte is frame-relative, matching
      // the journal's convention). This process keeps its in-memory copy;
      // the next recover() detects the damage and truncates the tail.
      fault::Corruption at;
      if (config_.faults->corruption_point(fault::Site::kSpillWrite, &at)) {
        at.at_byte += offset;
        fault::apply_corruption(pair_log_->path(), at);
      }
    };
  }
  if (!pair_log_->append(payload, damage)) {
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  const std::uint64_t frame_bytes = kFrameHeaderBytes + payload.size();
  stats_.bytes_written += frame_bytes;
  metric_bytes_written_.add(static_cast<std::int64_t>(frame_bytes));
  return true;
}

bool SpectrumStore::load_pair(const PairKey& key, Translation* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pairs_.find(key);
  if (it == pairs_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

SpectrumStore::Stats SpectrumStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string SpectrumStore::frame_path(const SpectrumKey& key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "sp-%016llx-%ux%u-%c%u.spec",
                static_cast<unsigned long long>(key.digest), key.height,
                key.width, key.real_fft ? 'r' : 'c',
                static_cast<unsigned>(key.tier));
  return config_.dir + "/" + name;
}

std::string SpectrumStore::pair_log_path() const {
  return config_.dir + "/pairs.log";
}

}  // namespace hs::stitch
