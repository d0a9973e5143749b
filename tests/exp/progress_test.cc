// ProgressReporter line formatting: the healthy line stays short, degraded
// statuses and retried/resumed counts appear only when nonzero, and the
// final line carries the sweep's critical path.

#include "src/exp/progress.h"

#include <gtest/gtest.h>

#include "src/exp/run_record.h"

namespace dibs {
namespace {

TEST(ProgressReporterTest, HealthyLineOmitsStatusBreakdown) {
  ProgressReporter progress("fig11", /*total=*/12, /*enabled=*/false);
  SweepSummary s;
  s.total = 12;
  s.ok = 7;
  EXPECT_EQ(progress.ComposeLine(s, 3.14), "[sweep fig11] 7/12 done in 3.1s");
}

TEST(ProgressReporterTest, DegradedStatusesAppearOnlyWhenNonzero) {
  ProgressReporter progress("fig11", 12, false);
  SweepSummary s;
  s.total = 12;
  s.ok = 5;
  s.failed = 1;
  s.timeout = 1;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done (ok 5, failed 1, timeout 1) in 3.1s");

  s.failed = 0;
  s.timeout = 0;
  s.crashed = 1;
  s.quarantined = 1;
  EXPECT_EQ(progress.ComposeLine(s, 0.05),
            "[sweep fig11] 7/12 done (ok 5, crashed 1, quarantined 1) in 0.1s");
}

TEST(ProgressReporterTest, RetriedAndResumedMarkersAppearWhenNonzero) {
  ProgressReporter progress("fig11", 12, false);
  SweepSummary s;
  s.total = 12;
  s.ok = 7;
  s.retried = 2;
  s.resumed = 3;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done [retried 2] [resumed 3] in 3.1s");

  s.resumed = 0;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done [retried 2] in 3.1s");
}

TEST(ProgressReporterTest, FullyDegradedLineCombinesEverything) {
  ProgressReporter progress("res", 4, false);
  SweepSummary s;
  s.total = 4;
  s.ok = 2;
  s.failed = 1;
  s.crashed = 1;
  s.retried = 1;
  s.resumed = 2;
  EXPECT_EQ(progress.ComposeLine(s, 12.0),
            "[sweep res] 4/4 done (ok 2, failed 1, crashed 1) [retried 1] "
            "[resumed 2] in 12.0s");
}

TEST(ProgressReporterTest, FinalLineReportsUtilisationAndLongestRun) {
  ProgressReporter progress("fig11", 8, false);
  SweepSummary s;
  s.total = 8;
  s.ok = 8;
  s.workers = 4;
  s.run_wall_ms = 4050;
  s.longest_index = 7;
  s.longest_wall_ms = 1030;
  s.longest_points = {{"scheme", "dibs"}, {"degree", "100"}};
  // Mid-sweep (wall_s unset) the critical path stays off the line.
  EXPECT_EQ(progress.ComposeLine(s, 1.0), "[sweep fig11] 8/8 done in 1.0s");

  s.wall_s = 1.25;  // util = 4.05 s / (4 workers x 1.25 s)
  EXPECT_EQ(progress.ComposeLine(s, 1.25),
            "[sweep fig11] 8/8 done in 1.2s, util 0.81, longest run 7 "
            "(scheme=dibs degree=100) 1.03s");

  s.longest_points.clear();
  EXPECT_EQ(progress.ComposeLine(s, 1.25),
            "[sweep fig11] 8/8 done in 1.2s, util 0.81, longest run 7 1.03s");

  // Every row replayed from a journal: nothing executed, no longest run.
  SweepSummary resumed;
  resumed.total = 2;
  resumed.ok = 2;
  resumed.resumed = 2;
  resumed.wall_s = 0.01;
  EXPECT_EQ(progress.ComposeLine(resumed, 0.01),
            "[sweep fig11] 2/8 done [resumed 2] in 0.0s, util 0.00");
}

}  // namespace
}  // namespace dibs
