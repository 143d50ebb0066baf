// Pair-level progress accounting for fault tolerance.
//
// PairLedger is a thread-safe record of every pair's translation as it is
// computed, shared across fallback attempts and exported as checkpoints by
// the serve layer. WarmFilter answers "is this pair already known?" against
// a warm-start table (a checkpoint or an earlier attempt's ledger snapshot)
// so backends skip finished pairs — and size their reference counts, pools,
// and read plans to only the remaining work.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "stitch/stitcher.hpp"
#include "stitch/types.hpp"

namespace hs::stitch {

/// Translation::correlation value marking a pair not yet computed.
inline constexpr double kNotComputed = -2.0;

/// Read-only view over an optional warm-start table. All queries identify a
/// pair by its moved tile: (pos, is_west) — the same convention the
/// DisplacementTable indexes by.
class WarmFilter {
 public:
  explicit WarmFilter(const DisplacementTable* warm = nullptr) : warm_(warm) {}

  bool enabled() const { return warm_ != nullptr; }

  /// True when the warm table already settled this pair — computed, or
  /// marked kFailed by a quarantine (no point recomputing against a tile
  /// that is gone).
  bool skip(img::TilePos moved, bool is_west) const {
    if (warm_ == nullptr) return false;
    const std::size_t i = warm_->layout.index_of(moved);
    const Translation& t = is_west ? warm_->west[i] : warm_->north[i];
    if (t.correlation != kNotComputed) return true;
    const PairStatus s =
        is_west ? warm_->west_status[i] : warm_->north_status[i];
    return s == PairStatus::kFailed;
  }
  bool skip_west(img::TilePos moved) const { return skip(moved, true); }
  bool skip_north(img::TilePos moved) const { return skip(moved, false); }

  /// Number of pairs the warm table already covers.
  std::size_t warm_pair_count(const img::GridLayout& layout) const;

  const DisplacementTable* table() const { return warm_; }

 private:
  const DisplacementTable* warm_;
};

/// Thread-safe accumulator of computed pairs. Backends record through
/// note_pair_result(); the request layer snapshots it to seed fallback
/// attempts, and the serve layer snapshots it to write checkpoints.
class PairLedger {
 public:
  explicit PairLedger(img::GridLayout layout) : table_(layout) {}

  /// Seeds the ledger from a warm table (checkpoint): every computed entry
  /// is copied and counted.
  void prime(const DisplacementTable& warm);

  /// Records one computed pair. First write wins; pairs touching a
  /// quarantined tile are dropped.
  void record(img::TilePos moved, bool is_west, const Translation& t);

  /// Marks a tile permanently bad: its pairs become kFailed (un-recording
  /// any already present) and future record() calls for them are dropped.
  void quarantine_tile(std::size_t index);

  std::vector<std::size_t> quarantined() const;
  DisplacementTable snapshot() const;
  /// Computed pairs recorded so far (excludes failed pairs).
  std::size_t done_count() const;
  const img::GridLayout& layout() const { return table_.layout; }

 private:
  bool tile_quarantined_locked(img::TilePos pos) const {
    return quarantined_set_.count(table_.layout.index_of(pos)) != 0;
  }

  mutable std::mutex mutex_;
  DisplacementTable table_;
  std::size_t done_ = 0;
  std::vector<std::size_t> quarantined_;
  std::unordered_set<std::size_t> quarantined_set_;
};

/// Records a finished pair in the options' ledger (when set) and bumps the
/// pair-progress counter. Backends call this instead of note_pair_done at
/// the point a pair's translation lands in the displacement table.
inline void note_pair_result(const StitchOptions& options, img::TilePos moved,
                             bool is_west, const Translation& t) {
  if (options.ledger != nullptr) options.ledger->record(moved, is_west, t);
  note_pair_done(options);
}

}  // namespace hs::stitch
