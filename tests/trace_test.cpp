// Trace recorder tests: span capture, lane statistics, occupancy math,
// timeline rendering, and chrome JSON output.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "trace/trace.hpp"

namespace hs::trace {
namespace {

TEST(Recorder, CapturesExplicitSpans) {
  Recorder recorder;
  recorder.record("laneA", "op1", 0.0, 10.0);
  recorder.record("laneB", "op2", 5.0, 20.0);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].lane, "laneA");
  EXPECT_DOUBLE_EQ(spans[1].duration_us(), 15.0);
}

TEST(Recorder, DisabledRecordsNothing) {
  Recorder recorder(false);
  recorder.record("lane", "op", 0.0, 1.0);
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(Recorder, ScopedSpanMeasuresWallClock) {
  Recorder recorder;
  {
    auto span = recorder.scoped("lane", "sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_us(), 8000.0);
}

TEST(Recorder, LanesInFirstSeenOrder) {
  Recorder recorder;
  recorder.record("b", "x", 0, 1);
  recorder.record("a", "x", 1, 2);
  recorder.record("b", "x", 2, 3);
  const auto lanes = recorder.lanes();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], "b");
  EXPECT_EQ(lanes[1], "a");
}

TEST(LaneStats, OccupancyMergesOverlaps) {
  Recorder recorder;
  recorder.record("gpu", "k1", 0.0, 10.0);
  recorder.record("gpu", "k2", 5.0, 15.0);   // overlaps k1
  recorder.record("gpu", "k3", 20.0, 30.0);  // gap 15..20
  recorder.record("other", "pad", 0.0, 30.0);
  const LaneStats stats = recorder.lane_stats("gpu");
  EXPECT_DOUBLE_EQ(stats.interval_us, 30.0);
  EXPECT_DOUBLE_EQ(stats.busy_us, 25.0);  // [0,15] + [20,30]
  EXPECT_NEAR(stats.occupancy, 25.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.largest_gap_us, 5.0);
  EXPECT_EQ(stats.span_count, 3u);
}

TEST(LaneStats, LaneSetUnionCountsOverlapsOnce) {
  Recorder recorder;
  recorder.record("gpu.fft", "fft", 0.0, 10.0);
  recorder.record("gpu.disp", "ncc", 5.0, 15.0);  // overlaps the fft span
  recorder.record("gpu.disp", "ncc", 22.0, 30.0);
  recorder.record("cpu", "pad", 0.0, 40.0);  // outside the set
  const LaneStats stats =
      recorder.lane_stats(std::vector<std::string>{"gpu.fft", "gpu.disp"});
  EXPECT_DOUBLE_EQ(stats.interval_us, 40.0);
  EXPECT_DOUBLE_EQ(stats.busy_us, 23.0);  // [0,15] + [22,30]
  EXPECT_NEAR(stats.occupancy, 23.0 / 40.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.largest_gap_us, 10.0);  // 30..40
  EXPECT_EQ(stats.span_count, 3u);
}

TEST(LaneStats, ExplicitWindowClipsSpans) {
  Recorder recorder;
  recorder.record("gpu", "k", 0.0, 100.0);
  const LaneStats stats = recorder.lane_stats("gpu", 40.0, 60.0);
  EXPECT_DOUBLE_EQ(stats.busy_us, 20.0);
  EXPECT_DOUBLE_EQ(stats.occupancy, 1.0);
}

TEST(LaneStats, EmptyLaneFullyIdle) {
  Recorder recorder;
  recorder.record("gpu", "k", 0.0, 50.0);
  const LaneStats stats = recorder.lane_stats("absent");
  EXPECT_DOUBLE_EQ(stats.busy_us, 0.0);
  EXPECT_DOUBLE_EQ(stats.largest_gap_us, 50.0);
}

// Regression: an instantaneous span (t0 == t1) satisfies neither strict
// inequality of the overlap test, so a lane holding only markers reported
// span_count 0 and ascii_timeline returned "(empty interval)".
TEST(LaneStats, InstantaneousSpanCounted) {
  Recorder recorder;
  recorder.record("gpu", "marker", 10.0, 10.0);
  const LaneStats stats = recorder.lane_stats("gpu");
  EXPECT_EQ(stats.span_count, 1u);
  EXPECT_DOUBLE_EQ(stats.busy_us, 0.0);
  EXPECT_DOUBLE_EQ(stats.occupancy, 0.0);
  EXPECT_DOUBLE_EQ(stats.interval_us, 0.0);
}

TEST(LaneStats, InstantaneousSpanInsideExplicitWindow) {
  Recorder recorder;
  recorder.record("gpu", "marker", 10.0, 10.0);
  recorder.record("gpu", "edge", 40.0, 40.0);   // window upper edge
  recorder.record("gpu", "outside", 41.0, 41.0);
  const LaneStats stats = recorder.lane_stats("gpu", 0.0, 40.0);
  EXPECT_EQ(stats.span_count, 2u) << "closed-interval test for markers";
  EXPECT_DOUBLE_EQ(stats.occupancy, 0.0);
}

TEST(Timeline, AllInstantaneousSpansStillRender) {
  Recorder recorder;
  recorder.record("gpu", "marker", 10.0, 10.0);
  recorder.record("cpu", "marker", 10.0, 10.0);
  const std::string timeline = recorder.ascii_timeline(40);
  EXPECT_EQ(timeline.find("(empty interval)"), std::string::npos);
  EXPECT_NE(timeline.find("gpu"), std::string::npos);
  EXPECT_NE(timeline.find("cpu"), std::string::npos);
}

TEST(Timeline, RendersOneRowPerLane) {
  Recorder recorder;
  recorder.record("cpu.read", "r", 0.0, 50.0);
  recorder.record("gpu.kernels", "k", 25.0, 100.0);
  const std::string timeline = recorder.ascii_timeline(40);
  EXPECT_NE(timeline.find("cpu.read"), std::string::npos);
  EXPECT_NE(timeline.find("gpu.kernels"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
}

TEST(Timeline, EmptyRecorderSaysSo) {
  Recorder recorder;
  EXPECT_EQ(recorder.ascii_timeline(), "(no spans recorded)\n");
}

TEST(Timeline, DenseVsSparseOccupancyVisible) {
  // The Fig 7 / Fig 9 contrast in miniature: a sparse lane renders with
  // blanks, a dense lane renders solid.
  Recorder recorder;
  for (int i = 0; i < 10; ++i) {
    recorder.record("sparse", "k", i * 100.0, i * 100.0 + 10.0);
    recorder.record("dense", "k", i * 100.0, (i + 1) * 100.0);
  }
  const LaneStats sparse = recorder.lane_stats("sparse");
  const LaneStats dense = recorder.lane_stats("dense");
  EXPECT_LT(sparse.occupancy, 0.15);
  EXPECT_GT(dense.occupancy, 0.95);
}

TEST(ChromeJson, WritesValidSkeleton) {
  Recorder recorder;
  recorder.record("lane", "op", 1.0, 2.0);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hs_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  recorder.write_chrome_json(path);
  std::ifstream file(path);
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("thread_name"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Recorder, ClearRemovesSpans) {
  Recorder recorder;
  recorder.record("lane", "op", 0, 1);
  recorder.clear();
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(Recorder, ConcurrentRecordingIsSafe) {
  Recorder recorder;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < 250; ++i) {
        recorder.record("lane" + std::to_string(t), "op", i, i + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.spans().size(), 1000u);
}

}  // namespace
}  // namespace hs::trace
