// Tiny-window smoke runs of every workload: cells finish ok, repetitions
// agree, and the traced run (observer, sampler, RunSpec::runner) leaves
// the canonical outputs unchanged.

#include "perfbench/src/workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace perfbench {
namespace {

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, TracedEqualsUntraced) {
  const Workload w = MakeWorkload(GetParam(), /*seed=*/3, /*block=*/0, /*window_ms=*/2);
  ASSERT_FALSE(w.cells.empty());
  const BlockResult plain = RunBlock(w, /*traced=*/false);
  const BlockResult again = RunBlock(w, /*traced=*/false);
  const BlockResult traced = RunBlock(w, /*traced=*/true);
  EXPECT_EQ(plain.failed, 0);
  EXPECT_EQ(traced.failed, 0);
  EXPECT_EQ(plain.records.size(), w.cells.size());
  EXPECT_GT(plain.delivered, 0u);
  EXPECT_EQ(plain.digest, again.digest);
  EXPECT_EQ(plain.digest, traced.digest);

  ASSERT_EQ(traced.cells.size(), w.cells.size());
  for (const CellTrace& c : traced.cells) {
    EXPECT_LE(c.start, c.setup_end);
    EXPECT_LE(c.setup_end, c.run_end);
    EXPECT_LE(c.run_end, c.end);
    EXPECT_GE(c.worker, 0);
    EXPECT_LT(c.worker, w.workers);
    EXPECT_GT(c.counts.enqueues, 0u);
    EXPECT_GT(c.counts.observer_calls, c.counts.enqueues);
    EXPECT_EQ(c.slices.size(), c.slice_events.size());
    // The sampler runs every 4096 events; tiny cells may end before that.
    EXPECT_EQ(c.counts.peak_pending > 0, !c.slices.empty());
  }
}

TEST_P(WorkloadSmokeTest, SeedAndBlockChangeInputs) {
  const BlockResult a = RunBlock(MakeWorkload(GetParam(), 3, 0, 2), false);
  const BlockResult b = RunBlock(MakeWorkload(GetParam(), 4, 0, 2), false);
  const BlockResult c = RunBlock(MakeWorkload(GetParam(), 3, 1, 2), false);
  EXPECT_NE(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmokeTest, ::testing::ValuesIn(WorkloadNames()));

TEST(WorkloadTest, UnknownNameThrows) {
  EXPECT_THROW(MakeWorkload("nope", 1), std::invalid_argument);
}

TEST(WorkloadTest, EveryCellOfARunHasItsOwnSeed) {
  std::set<uint64_t> seeds;
  size_t cells = 0;
  for (int block = 0; block < 3; ++block) {
    for (const Cell& c : MakeWorkload("incast_sweep", 5, block).cells) {
      seeds.insert(c.config.seed);
      ++cells;
    }
  }
  EXPECT_EQ(seeds.size(), cells);
  EXPECT_EQ(cells, 24u);
}

TEST(WorkloadTest, BlockCountDependsOnArgumentsOnly) {
  for (const std::string& name : WorkloadNames()) {
    EXPECT_EQ(BlocksFor(name, 0.1), 3);
    EXPECT_GE(BlocksFor(name, 60), BlocksFor(name, 30));
  }
}

TEST(WorkloadTest, MeasureSetupIsPositive) {
  EXPECT_GT(MeasureSetup(MakeWorkload("pfabric_incast", 1, 0, 2)), 0);
}

}  // namespace
}  // namespace perfbench
