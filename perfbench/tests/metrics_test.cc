#include "perfbench/src/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {
namespace {

dibs::RunRecord SampleRecord() {
  dibs::RunRecord r;
  r.index = 3;
  r.sweep = "incast_sweep";
  r.points = {{"scheme", "dibs"}, {"degree", "60"}};
  r.seed = 7;
  r.wall_ms = 812.5;
  r.events_per_sec = 1.25e6;
  r.result.qct99_ms = 21.75;
  r.result.drops = 12;
  r.result.delivered_packets = 4096;
  r.result.events_processed = 123456;
  return r;
}

TEST(DigestTest, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
}

TEST(DigestTest, IgnoresHostTimeFields) {
  const dibs::RunRecord a = SampleRecord();
  dibs::RunRecord b = a;
  b.wall_ms = 1.0;
  b.events_per_sec = 99.0;
  EXPECT_EQ(CanonicalRecord(a), CanonicalRecord(b));
  EXPECT_EQ(DigestRecords({a}), DigestRecords({b}));
}

TEST(DigestTest, EverySimulatedFieldCounts) {
  const uint64_t base = DigestRecords({SampleRecord()});
  std::vector<dibs::RunRecord> variants(7, SampleRecord());
  variants[0].result.drops += 1;
  variants[1].result.qct99_ms += 1e-9;
  variants[2].seed += 1;
  variants[3].points[1].value = "80";
  variants[4].status = dibs::RunStatus::kFailed;
  variants[5].result.events_processed += 1;
  variants[6].index += 1;
  for (const dibs::RunRecord& v : variants) {
    EXPECT_NE(DigestRecords({v}), base);
  }
}

TEST(DigestTest, RecordOrderCounts) {
  dibs::RunRecord a = SampleRecord();
  dibs::RunRecord b = SampleRecord();
  b.index = 4;
  EXPECT_NE(DigestRecords({a, b}), DigestRecords({b, a}));
  EXPECT_EQ(Hex(0x1234), "0000000000001234");
}

TEST(OrderStatsTest, MedianAndPercentile) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, 99), 990);
  EXPECT_EQ(Percentile(v, 100), 1000);
  EXPECT_EQ(Percentile({5}, 99), 5);
}

TEST(OrderStatsTest, PercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(19, 99), 0);
  EXPECT_EQ(SupportedPercentile(20, 99), 50);
  EXPECT_EQ(SupportedPercentile(99, 99), 50);
  EXPECT_EQ(SupportedPercentile(100, 99), 90);
  EXPECT_EQ(SupportedPercentile(999, 99), 90);
  EXPECT_EQ(SupportedPercentile(1000, 99), 99);
  EXPECT_EQ(SupportedPercentile(10000, 99), 99);  // capped at the wanted one
  EXPECT_EQ(SupportedPercentile(10000, 99.9), 99.9);
}

TEST(SweepMetricsTest, WorkerUtil) {
  EXPECT_DOUBLE_EQ(WorkerUtil(8.0, 4, 2.5), 0.8);
  EXPECT_DOUBLE_EQ(WorkerUtil(3.0, 1, 3.0), 1.0);
  EXPECT_EQ(WorkerUtil(1.0, 4, 0.0), 0);
}

TEST(SweepMetricsTest, TailIdleCountsWorkerSecondsAfterLastClaim) {
  // Worker 0 runs [0,1] then claims the last cell at 1 and runs it to 4;
  // worker 1 runs [0,2] and then idles from 2 to the end at 4.
  const std::vector<CellSpan> cells = {{0, 0, 1}, {1, 0, 2}, {0, 1, 4}};
  EXPECT_DOUBLE_EQ(TailIdle(cells, 2, 4.0), 2.0);
  // A third worker that never got a cell idles from the last claim.
  EXPECT_DOUBLE_EQ(TailIdle(cells, 3, 4.0), 5.0);
  // One worker, back to back: no idle tail.
  EXPECT_DOUBLE_EQ(TailIdle({{0, 0, 1}, {0, 1, 3}}, 1, 3.0), 0.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {}), 10);
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{1, 3}, {5, 6}}), 7);
  // Overlapping children (parallel cells) are covered once.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{1, 5}, {2, 6}, {4, 7}}), 4);
  // Children reaching outside the parent only count inside it.
  EXPECT_DOUBLE_EQ(SelfTime({2, 6}, {{0, 3}, {5, 9}}), 2);
}

TEST(PendingTest, WrappedCountIsInsane) {
  EXPECT_TRUE(PendingSane(0, 1));
  EXPECT_TRUE(PendingSane(24000, 5000000));
  EXPECT_FALSE(PendingSane(std::numeric_limits<size_t>::max(), 5000000));
  EXPECT_FALSE(PendingSane(11, 10));
}

}  // namespace
}  // namespace perfbench
