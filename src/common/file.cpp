#include "common/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace hs {

namespace {

/// Closes a descriptor on every way out of read_file, a throwing resize
/// included.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Writes all of `bytes`, continuing after partial writes.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t wrote = ::write(fd, bytes.data(), bytes.size());
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
}

template <typename T>
T get_le(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                        << (8 * i));
  }
  return v;
}

}  // namespace

bool read_file(const std::string& path, std::string* out) {
  const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (fd.get() < 0 || ::fstat(fd.get(), &st) != 0) return false;
  const bool sized = S_ISREG(st.st_mode);
  out->resize(sized ? static_cast<std::size_t>(st.st_size) : 64 * 1024);
  std::size_t filled = 0;
  while (true) {
    if (filled == out->size()) {
      // A regular file is done at its stat size; anything else grows.
      if (sized) break;
      out->resize(2 * out->size());
    }
    const ssize_t got =
        ::read(fd.get(), out->data() + filled, out->size() - filled);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return false;
    if (got == 0) break;  // EOF (a regular file may have shrunk since stat)
    filled += static_cast<std::size_t>(got);
  }
  out->resize(filled);
  return true;
}

bool fsync_path(const std::string& path) {
  const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  return fd.get() >= 0 && ::fsync(fd.get()) == 0;
}

bool truncate_file(const std::string& path, std::uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
std::uint16_t get_u16(const char* p) { return get_le<std::uint16_t>(p); }
std::uint32_t get_u32(const char* p) { return get_le<std::uint32_t>(p); }
std::uint64_t get_u64(const char* p) { return get_le<std::uint64_t>(p); }

std::string encode_frame(std::uint32_t magic, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_u32(frame, magic);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32c(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

std::size_t scan_frames(
    std::string_view bytes, std::uint32_t magic, std::uint32_t max_payload,
    const std::function<bool(std::string_view)>& on_payload) {
  std::size_t offset = 0;
  while (bytes.size() - offset >= kFrameHeaderBytes) {
    const char* header = bytes.data() + offset;
    const std::uint32_t length = get_u32(header + 4);
    if (get_u32(header) != magic || length > max_payload ||
        length > bytes.size() - offset - kFrameHeaderBytes) {
      break;
    }
    const std::string_view payload =
        bytes.substr(offset + kFrameHeaderBytes, length);
    if (crc32c(payload.data(), payload.size()) != get_u32(header + 8) ||
        !on_payload(payload)) {
      break;
    }
    offset += kFrameHeaderBytes + length;
  }
  return offset;
}

bool publish_file(
    const std::string& path, std::string_view bytes,
    const std::function<void(const std::string& tmp)>& before_rename) {
  const std::string tmp = path + ".tmp";
  // Removes the tmp file on every way out but a completed rename, a
  // throwing hook included.
  struct TmpGuard {
    const std::string& tmp;
    bool armed = true;
    ~TmpGuard() {
      if (armed) std::remove(tmp.c_str());
    }
  } guard{tmp};
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  // A deferred write error surfaces at fsync or close, so both count.
  const bool synced = write_all(fd, bytes) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) return false;
  if (before_rename) before_rename(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  guard.armed = false;
  // Best effort: a rename that lives only in the directory's page cache
  // still leaves the old file or the new one after a crash, never half.
  const std::size_t slash = path.find_last_of('/');
  fsync_path(slash == std::string::npos ? "." : path.substr(0, slash + 1));
  return true;
}

FrameLog::FrameLog(std::string path, std::uint32_t magic)
    : path_(std::move(path)),
      magic_(magic),
      fd_(::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0666)) {
  if (fd_ < 0) throw IoError("cannot open frame log: " + path_);
  size_ = static_cast<std::uint64_t>(::lseek(fd_, 0, SEEK_END));
}

FrameLog::~FrameLog() { ::close(fd_); }

bool FrameLog::append(std::string_view payload, const Damage& damage) {
  if (broken_) return false;
  const std::string frame = encode_frame(magic_, payload);
  const std::uint64_t start = size_;
  ssize_t wrote = 0;
  do {
    wrote = ::write(fd_, frame.data(), frame.size());
  } while (wrote < 0 && errno == EINTR);
  if (wrote != static_cast<ssize_t>(frame.size())) {
    // Cut the torn frame back so the next record lands where this one
    // began, not behind damage replay would stop at.
    broken_ = ::ftruncate(fd_, static_cast<off_t>(start)) != 0;
    return false;
  }
  size_ = start + frame.size();
  if (damage) {
    damage(start);
    size_ = static_cast<std::uint64_t>(::lseek(fd_, 0, SEEK_END));
  }
  return true;
}

bool FrameLog::fsync() { return ::fsync(fd_) == 0; }

FrameLog::Replay FrameLog::replay(
    const std::string& path, std::uint32_t magic, std::uint32_t max_payload,
    const std::function<bool(std::string_view)>& on_payload) {
  Replay replay;
  std::string bytes;
  if (!read_file(path, &bytes)) return replay;
  replay.file_bytes = bytes.size();
  replay.valid_bytes = scan_frames(bytes, magic, max_payload, on_payload);
  if (replay.torn() && !truncate_file(path, replay.valid_bytes)) {
    std::fprintf(stderr, "frame log: cannot truncate %s\n", path.c_str());
  }
  return replay;
}

}  // namespace hs
