#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/util/rng.h"

namespace dibs {
namespace {

size_t SlotOf(EventId id) { return static_cast<size_t>(id & kEventSlotMask); }

// --- Cancel / pending_events() contracts ---
//
// Cancel of anything but a pending id is an exact no-op, pending_events()
// is an exact live count, and a recycled closure slot never lets a stale
// handle reach the event that now occupies it.

TEST(SimulatorCancelTest, CancelAfterFireKeepsPendingExact) {
  Simulator sim;
  int ran = 0;
  const EventId first = sim.Schedule(Time::Micros(1), [&] { ++ran; });
  sim.Schedule(Time::Micros(2), [&] { ++ran; });
  sim.RunUntil(Time::Micros(1));
  ASSERT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Cancel(first);  // already fired
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCancelTest, StaleCancelSparesTheSlotsNewOccupant) {
  Simulator sim;
  const EventId old_id = sim.Schedule(Time::Micros(1), [] {});
  sim.Run();
  bool ran = false;
  const EventId new_id = sim.Schedule(Time::Micros(1), [&] { ran = true; });
  ASSERT_NE(new_id, old_id);
  ASSERT_EQ(SlotOf(new_id), SlotOf(old_id));  // the slot really was reused
  sim.Cancel(old_id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorCancelTest, DoubleCancelActsOnce) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.Schedule(Time::Micros(1), [&] { order.push_back(1); });
  sim.Schedule(Time::Micros(2), [&] { order.push_back(2); });
  sim.Cancel(a);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  // The cancelled slot is recycled; a third Cancel must not reach its heir.
  sim.Schedule(Time::Micros(3), [&] { order.push_back(3); });
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCancelTest, SelfCancelWhileRunningIsNoop) {
  Simulator sim;
  EventId self = kInvalidEventId;
  EventId child = kInvalidEventId;
  bool child_ran = false;
  self = sim.Schedule(Time::Micros(1), [&] {
    // The child lands in the slot this event just vacated.
    child = sim.Schedule(Time::Micros(1), [&] { child_ran = true; });
    sim.Cancel(self);
    EXPECT_EQ(sim.pending_events(), 1u);
  });
  sim.Run();
  EXPECT_EQ(SlotOf(child), SlotOf(self));
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCancelTest, TiesStayFifoAfterSlotReuse) {
  Simulator sim;
  std::vector<EventId> filler;
  for (int i = 0; i < 10; ++i) {
    filler.push_back(sim.Schedule(Time::Micros(9), [] {}));
  }
  // Vacate the slots in a scrambled order so reuse hands them out unsorted.
  for (int i : {3, 7, 1, 9, 0, 5, 8, 2, 6, 4}) {
    sim.Cancel(filler[static_cast<size_t>(i)]);
  }
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.Schedule(Time::Micros(5), [&order, i] { order.push_back(i); }));
  }
  std::vector<size_t> slots;
  for (EventId id : ids) {
    slots.push_back(SlotOf(id));
  }
  ASSERT_FALSE(std::is_sorted(slots.begin(), slots.end()));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SimulatorCancelTest, PendingEventsExactUnderChurn) {
  // Random schedule / cancel (live, fired, cancelled and never-issued ids) /
  // run mix, checked against a reference model of the live events.
  Simulator sim;
  Rng rng(17);
  std::map<EventId, Time> live;
  std::vector<EventId> issued;
  std::set<EventId> fired;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextUint64() % 4;
    if (op <= 1 || issued.empty()) {
      const Time when = sim.Now() + Time::Nanos(static_cast<int64_t>(rng.NextUint64() % 50));
      const size_t n = issued.size();
      const EventId id =
          sim.ScheduleAt(when, [&fired, &issued, n] { fired.insert(issued[n]); });
      live.emplace(id, when);
      issued.push_back(id);
    } else if (op == 2) {
      const EventId victim = issued[rng.NextUint64() % issued.size()];
      sim.Cancel(victim);
      live.erase(victim);
      sim.Cancel(victim + (EventId{1} << 50));  // never issued
    } else {
      const Time until = sim.Now() + Time::Nanos(static_cast<int64_t>(rng.NextUint64() % 5));
      sim.RunUntil(until);
      for (auto it = live.begin(); it != live.end();) {
        if (it->second <= until) {
          EXPECT_EQ(fired.count(it->first), 1u) << "live event " << it->first << " never ran";
          it = live.erase(it);
        } else {
          ++it;
        }
      }
    }
    ASSERT_EQ(sim.pending_events(), live.size()) << "step " << step;
  }
  const size_t remaining = live.size();
  const size_t fired_before = fired.size();
  sim.Run();
  EXPECT_EQ(fired.size(), fired_before + remaining);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_processed(), fired.size());
}

// --- Id-space and restore invariants (fatal by design) ---

TEST(SimulatorDeathTest, BeginRestoreRejectsIdWithSlotBits) {
  Simulator sim;
  EXPECT_DEATH(sim.BeginRestore(Time::Zero(), (EventId{5} << kEventSlotBits) | 3, 0),
               "slot bits");
}

TEST(SimulatorDeathTest, RestoreIntoLiveSlotIsFatal) {
  Simulator sim;
  sim.BeginRestore(Time::Zero(), EventId{10} << kEventSlotBits, 0);
  sim.RestoreEventAt(Time::Micros(1), (EventId{4} << kEventSlotBits) | 2, [] {});
  EXPECT_DEATH(sim.RestoreEventAt(Time::Micros(2), (EventId{7} << kEventSlotBits) | 2, [] {}),
               "live slot");
}

TEST(SimulatorDeathTest, SequenceSpaceCapIsFatal) {
  Simulator sim;
  sim.BeginRestore(Time::Zero(), (kMaxEventSeq - 1) << kEventSlotBits, 0);
  const EventId last = sim.Schedule(Time::Zero(), [] {});
  EXPECT_EQ(last >> kEventSlotBits, kMaxEventSeq - 1);
  EXPECT_DEATH(sim.Schedule(Time::Zero(), [] {}), "sequence space");
}

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), Time::Zero());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Time::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Time::Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Time::Micros(30));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NowAdvancesDuringEvents) {
  Simulator sim;
  Time seen;
  sim.Schedule(Time::Millis(7), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, Time::Millis(7));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      sim.Schedule(Time::Micros(1), chain);
    }
  };
  sim.Schedule(Time::Zero(), chain);
  sim.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), Time::Micros(4));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.Schedule(Time::Micros(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelInvalidIdIsNoop) {
  Simulator sim;
  sim.Cancel(kInvalidEventId);
  sim.Cancel(999999);
  sim.Run();
}

TEST(SimulatorTest, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(1), [&] { order.push_back(1); });
  const EventId id = sim.Schedule(Time::Micros(2), [&] { order.push_back(2); });
  sim.Schedule(Time::Micros(3), [&] { order.push_back(3); });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Time::Micros(20), [&] { order.push_back(2); });
  sim.Schedule(Time::Micros(30), [&] { order.push_back(3); });
  sim.RunUntil(Time::Micros(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), Time::Micros(20));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesTimeWithEmptyQueue) {
  Simulator sim;
  sim.RunUntil(Time::Seconds(5));
  EXPECT_EQ(sim.Now(), Time::Seconds(5));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Time::Millis(5));
  sim.RunFor(Time::Millis(5));
  EXPECT_EQ(sim.Now(), Time::Millis(10));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Micros(i), [&] {
      if (++count == 3) {
        sim.Stop();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  // Remaining events still pending; a new Run drains them.
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Time::Micros(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.Schedule(Time::Micros(1), [] {});
  const EventId id = sim.Schedule(Time::Micros(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.Schedule(Time::Micros(i), [&] { draws.push_back(sim.rng().NextUint64()); });
    }
    sim.Run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(SimulatorTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  sim.Schedule(Time::Millis(1), [&] {
    sim.Schedule(Time::Zero(), [&] { EXPECT_EQ(sim.Now(), Time::Millis(1)); });
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), Time::Millis(1));
}

}  // namespace
}  // namespace dibs
