#include "common/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

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

}  // namespace hs
