// Every durable byte the project writes, and the whole-file reads that load
// it back: the journal's segments, the spill store's pairs.log and spectrum
// frames, and checkpoint tables all go through this one module.
//
// Frames (all little-endian): [magic u32][payload length u32]
// [crc32c(payload) u32][payload]. scan_frames is their only decoder.
//
// Append rule (FrameLog): one write(2) per frame. A short or failed write is
// cut back to the frame's start and reported, so no record ever lands behind
// a torn frame; if the cut fails too, the log refuses every later append.
// The log never fsyncs on its own.
//
// Publish rule (publish_file): `<path>.tmp` is written, fsynced and closed,
// each step checked, then renamed over `path`, then the directory is
// fsynced. On any failure the tmp file is removed and `path` is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace hs {

/// Reads all of `path` into `*out`. Returns false when the file cannot be
/// opened or read (missing, a directory, an I/O error); `*out` is then
/// unspecified. A regular file is read with one read sized by stat; a file
/// without a size (a pipe, a character device) is read in chunks to EOF.
bool read_file(const std::string& path, std::string* out);

/// fsyncs a file or directory by path. Returns false on failure.
bool fsync_path(const std::string& path);

/// Cuts `path` to `size` bytes. Returns false on failure.
bool truncate_file(const std::string& path, std::uint64_t size);

// Little-endian integers, appended to `out` or read from `p`.
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
std::uint16_t get_u16(const char* p);
std::uint32_t get_u32(const char* p);
std::uint64_t get_u64(const char* p);

constexpr std::size_t kFrameHeaderBytes = 12;  // magic + length + crc

std::string encode_frame(std::uint32_t magic, std::string_view payload);

/// Hands each frame's payload at the start of `bytes` to `on_payload` and
/// returns the length of the valid prefix. Stops at the first frame with
/// another magic, a length over `max_payload` or past the end, or a CRC
/// mismatch; at a leftover shorter than a header; or when `on_payload`
/// returns false.
std::size_t scan_frames(std::string_view bytes, std::uint32_t magic,
                        std::uint32_t max_payload,
                        const std::function<bool(std::string_view)>& on_payload);

/// Publishes `bytes` at `path` (the publish rule above). `before_rename`
/// runs on the synced tmp file: fault injection damages it there. An
/// exception from it propagates after the tmp file is removed.
bool publish_file(const std::string& path, std::string_view bytes,
                  const std::function<void(const std::string& tmp)>&
                      before_rename = nullptr);

/// An append-only file of frames with one magic (the append rule above).
/// Not thread-safe: callers append under their own lock.
class FrameLog {
 public:
  /// Runs after a whole frame landed, with the frame's start offset: fault
  /// injection damages the record just appended there.
  using Damage = std::function<void(std::uint64_t offset)>;

  /// Opens `path` for appending, creating it. Throws IoError.
  FrameLog(std::string path, std::uint32_t magic);
  ~FrameLog();  // closes without an fsync
  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  /// Appends `payload` as one frame; false when it did not land whole. The
  /// size is re-read after `damage`, which may truncate the file.
  bool append(std::string_view payload, const Damage& damage = nullptr);
  bool fsync();
  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  struct Replay {
    std::size_t valid_bytes = 0;  ///< intact prefix the file keeps
    std::size_t file_bytes = 0;   ///< size before the cut
    bool torn() const { return valid_bytes < file_bytes; }
  };
  /// Scans the log at `path` (see scan_frames) and truncates it in place
  /// after its valid prefix. A missing file replays as empty.
  static Replay replay(const std::string& path, std::uint32_t magic,
                       std::uint32_t max_payload,
                       const std::function<bool(std::string_view)>& on_payload);

 private:
  std::string path_;
  std::uint32_t magic_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  bool broken_ = false;  ///< a torn frame could not be cut back
};

}  // namespace hs
