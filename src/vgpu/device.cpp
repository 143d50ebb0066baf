#include "vgpu/device.hpp"

#include <map>

#include "common/error.hpp"
#include "fault/plan.hpp"

namespace hs::vgpu {

// First-fit free-list allocator over one contiguous arena, with coalescing
// on free. Allocation patterns are pool-like (many equal-size transform
// buffers), so fragmentation is negligible; what matters is the hard
// capacity limit and accurate accounting. The storage is reserved, not
// zeroed (as cudaMalloc reserves device memory): the OS commits only the
// pages a buffer actually touches, so a large arena costs no more host
// memory than the pools carved from it.
struct Device::Arena {
  std::unique_ptr<std::uint8_t[]> storage;
  std::size_t capacity = 0;
  std::mutex mutex;
  // offset -> length of each free block, keyed for coalescing.
  std::map<std::size_t, std::size_t> free_blocks;
  std::size_t allocated = 0;
  std::size_t allocations = 0;

  explicit Arena(std::size_t bytes)
      : storage(std::make_unique_for_overwrite<std::uint8_t[]>(bytes)),
        capacity(bytes) {
    if (bytes > 0) free_blocks.emplace(0, bytes);
  }

  static std::size_t align_up(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

  void* alloc(std::size_t bytes, const std::string& device_name) {
    const std::size_t need = align_up(bytes);
    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = free_blocks.begin(); it != free_blocks.end(); ++it) {
      if (it->second < need) continue;
      const std::size_t offset = it->first;
      const std::size_t remain = it->second - need;
      free_blocks.erase(it);
      if (remain > 0) free_blocks.emplace(offset + need, remain);
      allocated += need;
      ++allocations;
      return storage.get() + offset;
    }
    throw OutOfDeviceMemory(
        device_name + ": cannot allocate " + std::to_string(bytes) +
        " bytes (" + std::to_string(allocated) + "/" +
        std::to_string(capacity) + " in use)");
  }

  void free(void* data, std::size_t bytes) {
    const std::size_t need = align_up(bytes);
    const auto offset = static_cast<std::size_t>(
        static_cast<std::uint8_t*>(data) - storage.get());
    std::lock_guard<std::mutex> lock(mutex);
    HS_ASSERT_MSG(allocated >= need, "double free in device arena");
    allocated -= need;
    auto [it, inserted] = free_blocks.emplace(offset, need);
    HS_ASSERT_MSG(inserted, "double free in device arena");
    // Coalesce with successor then predecessor.
    auto next = std::next(it);
    if (next != free_blocks.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_blocks.erase(next);
    }
    if (it != free_blocks.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_blocks.erase(it);
      }
    }
  }
};

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : device_(other.device_), data_(other.data_), size_(other.size_) {
  other.device_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    device_ = other.device_;
    data_ = other.data_;
    size_ = other.size_;
    other.device_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() {
  if (device_ != nullptr && data_ != nullptr) {
    device_->free(data_, size_);
  }
  device_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

Device::Device(DeviceConfig config)
    : config_(std::move(config)),
      arena_(std::make_unique<Arena>(config_.memory_bytes)) {}

Device::~Device() = default;

DeviceBuffer Device::alloc(std::size_t bytes) {
  HS_REQUIRE(bytes > 0, "zero-byte device allocation");
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kDeviceAlloc)) {
    throw OutOfDeviceMemory(config_.name + ": injected allocation fault (" +
                            std::to_string(bytes) + " bytes)");
  }
  void* data = arena_->alloc(bytes, config_.name);
  return DeviceBuffer(this, data, bytes);
}

void Device::free(void* data, std::size_t size) { arena_->free(data, size); }

std::size_t Device::allocated() const {
  std::lock_guard<std::mutex> lock(arena_->mutex);
  return arena_->allocated;
}

std::size_t Device::allocation_count() const {
  std::lock_guard<std::mutex> lock(arena_->mutex);
  return arena_->allocations;
}

}  // namespace hs::vgpu
