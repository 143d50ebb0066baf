// Short-write test helper: lowers the test process's soft RLIMIT_FSIZE.
// Header-only so every test binary can use it without another library
// target.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>

#include <gtest/gtest.h>

namespace hs::testing {

/// Lowers this process's soft RLIMIT_FSIZE to `bytes`, with SIGXFSZ
/// ignored, so a write reaching the limit comes back short (and the next
/// fails with EFBIG) instead of killing the test. Restores both on scope
/// exit. Acts on the test process only.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uint64_t bytes)
      : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &old_), 0);
    rlimit lowered = old_;
    lowered.rlim_cur = std::min<rlim_t>(bytes, old_.rlim_max);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit old_{};
  void (*old_handler_)(int);
};

}  // namespace hs::testing
