#include "vgpu/stream.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/thread_util.hpp"
#include "fault/plan.hpp"
#include "metrics/wellknown.hpp"

namespace hs::vgpu {

Stream::Stream(Device& device, std::string name)
    : device_(device),
      name_(std::move(name)),
      lane_(device.config().trace_prefix + "." + name_),
      metric_enqueues_(metrics::wellknown::vgpu_stream_enqueues_total()),
      worker_([this] { worker_loop(); }) {}

Stream::~Stream() {
  commands_.close();
  worker_.join();
}

void Stream::worker_loop() {
  set_current_thread_name(lane_);
  hs::trace::Recorder* recorder = device_.recorder();
  while (auto command = commands_.pop()) {
    const hs::trace::Recorder::Scoped span(
        command->traced ? recorder : nullptr, lane_, std::move(command->label));
    command->work();
  }
}

void Stream::enqueue(std::string label, MoveFunction work) {
  // Fault injection happens at submission, on the caller's thread, so the
  // error unwinds through the existing backend exception paths and the
  // stream worker itself never throws. synchronize() bypasses this hook
  // (record_event pushes directly), so teardown stays fault-free.
  fault::FaultPlan* faults = device_.config().faults;
  if (faults != nullptr &&
      faults->hang_point(fault::Site::kStreamExec, device_.config().cancel,
                         lane_)) {
    throw DeviceError(lane_ + ": injected hang interrupted executing '" +
                      label + "'");
  }
  if (faults != nullptr && faults->should_fail(fault::Site::kStreamExec)) {
    throw DeviceError(lane_ + ": injected device fault executing '" + label +
                      "'");
  }
  metric_enqueues_.add();
  const bool accepted =
      commands_.push(Command{std::move(label), std::move(work), true});
  HS_ASSERT_MSG(accepted, "enqueue on destroyed stream");
}

void Stream::memcpy_h2d(DeviceBuffer& dst, const void* src,
                        std::size_t bytes) {
  HS_REQUIRE(bytes <= dst.size(), "h2d copy larger than destination buffer");
  void* dst_ptr = dst.data();
  enqueue("memcpy_h2d", [dst_ptr, src, bytes] {
    std::memcpy(dst_ptr, src, bytes);
  });
}

void Stream::memcpy_d2h(void* dst, const DeviceBuffer& src,
                        std::size_t bytes) {
  HS_REQUIRE(bytes <= src.size(), "d2h copy larger than source buffer");
  const void* src_ptr = src.data();
  enqueue("memcpy_d2h", [dst, src_ptr, bytes] {
    std::memcpy(dst, src_ptr, bytes);
  });
}

void Stream::memcpy_p2p(DeviceBuffer& dst, const DeviceBuffer& src,
                        std::size_t bytes) {
  HS_REQUIRE(bytes <= dst.size() && bytes <= src.size(),
             "p2p copy larger than a participating buffer");
  void* dst_ptr = dst.data();
  const void* src_ptr = src.data();
  enqueue("memcpy_p2p", [dst_ptr, src_ptr, bytes] {
    std::memcpy(dst_ptr, src_ptr, bytes);
  });
}

Event Stream::record_event() {
  Event event;
  const bool accepted = commands_.push(
      Command{"event", [event] { event.signal(); }, /*traced=*/false});
  HS_ASSERT_MSG(accepted, "record_event on destroyed stream");
  return event;
}

void Stream::wait_event(Event event) {
  const bool accepted = commands_.push(Command{
      "wait_event", [event = std::move(event)] { event.wait(); },
      /*traced=*/false});
  HS_ASSERT_MSG(accepted, "wait_event on destroyed stream");
}

void Stream::synchronize() { record_event().wait(); }

}  // namespace hs::vgpu
