// Checkpoint/restore contracts (src/ckpt):
//
//  - file format: every truncation and every single-bit flip of a valid
//    checkpoint is diagnosed as a typed CkptError — never decoded wrong;
//  - restore identity: a run resumed from a quiescent-barrier snapshot
//    finishes with results identical to the uninterrupted run, and the
//    restored state re-encodes to the exact bytes that were saved;
//  - degrade-to-replay: a damaged or mismatched checkpoint makes the
//    harness fall back to a from-scratch replay whose results equal the
//    uninterrupted baseline (correct-by-refusal, end to end);
//  - sweep resume: a process-isolated run SIGKILLed right after a barrier
//    is retried, restores the snapshot, and produces a byte-identical
//    record (modulo host-side wall timing and the attempt counter).

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/manager.h"
#include "src/exp/record_codec.h"
#include "src/exp/run_journal.h"
#include "src/exp/sweep_engine.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/sim/simulator.h"
#include "src/util/json.h"

namespace dibs {
namespace {

using ckpt::CkptError;
using ckpt::EventKey;

// ---------------------------------------------------------------------------
// File-format corruption matrix

json::Value TinyState() {
  json::Value state = json::MakeObject();
  state.fields["format"] = json::MakeString(ckpt::kCkptFormat);
  state.fields["version"] = json::MakeInt(ckpt::kCkptVersion);
  state.fields["config_digest"] = json::MakeUint(42);
  state.fields["barrier"] = json::MakeInt(1);
  json::Value sim = json::MakeObject();
  sim.fields["now"] = json::MakeInt(1000);
  state.fields["sim"] = std::move(sim);
  state.fields["components"] = json::MakeObject();
  return state;
}

TEST(CkptFormatTest, RoundTrips) {
  const std::string text = ckpt::EncodeCheckpointFile(TinyState());
  const json::Value state = ckpt::DecodeCheckpointFile(text);
  EXPECT_EQ(json::ReadUint64(state, "config_digest", 0), 42u);
  EXPECT_EQ(json::ReadInt64(state, "barrier", 0), 1);
}

TEST(CkptFormatTest, EveryTruncationRejected) {
  const std::string text = ckpt::EncodeCheckpointFile(TinyState());
  for (size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(ckpt::DecodeCheckpointFile(text.substr(0, len)), CkptError)
        << "prefix of length " << len << " decoded";
  }
}

TEST(CkptFormatTest, EverySingleBitFlipRejected) {
  const std::string text = ckpt::EncodeCheckpointFile(TinyState());
  for (size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_THROW(ckpt::DecodeCheckpointFile(flipped), CkptError)
          << "flip of byte " << i << " bit " << bit << " decoded";
    }
  }
}

TEST(CkptFormatTest, WrongFormatMarkerRejected) {
  json::Value state = TinyState();
  state.fields["format"] = json::MakeString("not-a-ckpt");
  EXPECT_THROW(ckpt::DecodeCheckpointFile(ckpt::EncodeCheckpointFile(state)),
               CkptError);
}

TEST(CkptFormatTest, FutureVersionRejected) {
  json::Value state = TinyState();
  state.fields["version"] = json::MakeInt(ckpt::kCkptVersion + 1);
  EXPECT_THROW(ckpt::DecodeCheckpointFile(ckpt::EncodeCheckpointFile(state)),
               CkptError);
}

TEST(CkptFormatTest, VersionOneRejected) {
  // Version-1 files hold event ids from before the slot-packed id layout.
  json::Value state = TinyState();
  state.fields["version"] = json::MakeInt(1);
  EXPECT_THROW(ckpt::DecodeCheckpointFile(ckpt::EncodeCheckpointFile(state)),
               CkptError);
}

TEST(CkptFormatTest, MissingFileRejected) {
  EXPECT_THROW(ckpt::ReadCheckpointFile("/no/such/file.ckpt"), CkptError);
}

// ---------------------------------------------------------------------------
// Simulator-level restore: new events after a restore

// A self-driving timer soup over the raw event API: every firing draws from
// the simulator RNG, re-arms one or two timers and now and then cancels a
// pending one, so closure slots are recycled constantly. Pending timers are
// (when, id) descriptors keyed by tag, which is all a checkpoint carries.
class TimerSoup {
 public:
  TimerSoup(Simulator* sim, int max_timers) : sim_(sim), max_timers_(max_timers) {}

  void Start(int timers) {
    for (int i = 0; i < timers; ++i) {
      Arm();
    }
  }

  // Re-arms the pending timers of `saved`, a soup on the checkpointed sim.
  void RestoreFrom(const TimerSoup& saved) {
    next_tag_ = saved.next_tag_;
    for (const auto& [tag, timer] : saved.pending_) {
      sim_->RestoreEventAt(timer.when, timer.id, [this, tag = tag] { Fire(tag); });
      pending_.emplace(tag, timer);
    }
  }

  // Every firing as "time:tag:sequence"; the sequence is the id's high bits
  // (slot bits are pool bookkeeping and may differ after a restore).
  const std::vector<std::string>& log() const { return log_; }

 private:
  struct Timer {
    Time when;
    EventId id;
  };

  void Arm() {
    if (next_tag_ >= max_timers_) {
      return;
    }
    const int tag = next_tag_++;
    const Time when =
        sim_->Now() + Time::Nanos(1 + static_cast<int64_t>(sim_->rng().NextUint64() % 100));
    const EventId id = sim_->ScheduleAt(when, [this, tag] { Fire(tag); });
    for (const auto& [other, timer] : pending_) {
      EXPECT_NE(timer.id & kEventSlotMask, id & kEventSlotMask)
          << "timer " << tag << " took the slot of pending timer " << other;
    }
    pending_.emplace(tag, Timer{when, id});
  }

  void Fire(int tag) {
    const EventId id = pending_.at(tag).id;
    pending_.erase(tag);
    std::ostringstream os;
    os << sim_->Now().nanos() << ":" << tag << ":" << (id >> kEventSlotBits);
    log_.push_back(os.str());
    Arm();
    if (sim_->rng().NextUint64() % 3 == 0) {
      Arm();
    }
    if (sim_->rng().NextUint64() % 4 == 0 && !pending_.empty()) {
      auto victim = pending_.begin();
      std::advance(victim, static_cast<long>(sim_->rng().NextUint64() % pending_.size()));
      sim_->Cancel(victim->second.id);
      pending_.erase(victim);
    }
  }

  Simulator* sim_;
  const int max_timers_;
  int next_tag_ = 0;
  std::map<int, Timer> pending_;
  std::vector<std::string> log_;
};

TEST(CkptSimulatorTest, EventsScheduledAfterRestoreMatchUninterruptedRun) {
  constexpr int kTimers = 4000;
  Simulator original(11);
  TimerSoup soup(&original, kTimers);
  soup.Start(64);
  while (soup.log().size() < kTimers / 4) {
    original.RunFor(Time::Nanos(10));
  }
  ASSERT_GT(original.pending_events(), 0u);

  // Snapshot by hand at this quiescent point, as CheckpointManager does.
  std::vector<EventKey> keys = original.PendingEventKeys();
  const size_t fired_before = soup.log().size();
  std::ostringstream rng;
  rng << original.rng().engine();

  Simulator restored(99);  // wrong seed on purpose: the snapshot overrides it
  restored.BeginRestore(original.Now(), original.next_event_id(), original.events_processed());
  std::istringstream rng_in(rng.str());
  rng_in >> restored.rng().engine();
  TimerSoup resumed(&restored, kTimers);
  resumed.RestoreFrom(soup);
  std::vector<EventKey> restored_keys = restored.PendingEventKeys();
  std::sort(keys.begin(), keys.end());
  std::sort(restored_keys.begin(), restored_keys.end());
  EXPECT_EQ(restored_keys, keys);
  EXPECT_EQ(restored.pending_events(), original.pending_events());

  original.Run();
  restored.Run();
  ASSERT_GT(resumed.log().size(), 1000u) << "the tail must schedule plenty after restore";
  const std::vector<std::string> tail(soup.log().begin() + static_cast<long>(fired_before),
                                      soup.log().end());
  EXPECT_EQ(resumed.log(), tail);
  EXPECT_EQ(restored.events_processed(), original.events_processed());
  EXPECT_EQ(restored.Now(), original.Now());
  EXPECT_EQ(restored.next_event_id(), original.next_event_id());
  EXPECT_EQ(restored.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Scenario-level restore identity

ExperimentConfig Tiny(ExperimentConfig c) {
  c.fat_tree_k = 4;
  c.incast_degree = 8;
  c.qps = 400;
  c.response_bytes = 4000;
  c.bg_interarrival = Time::Millis(40);
  c.duration = Time::Millis(60);
  c.drain = Time::Millis(40);
  c.seed = 7;
  return c;
}

// Every deterministic field of the result; restore != replay on ANY of
// these is a broken checkpoint, so compare exhaustively and exactly (the
// doubles too — bit-identical replay is the repo's contract).
void ExpectResultsEqual(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.qct99_ms, b.qct99_ms);
  EXPECT_EQ(a.bg_fct99_ms, b.bg_fct99_ms);
  EXPECT_EQ(a.bg_fct99_all_ms, b.bg_fct99_all_ms);
  EXPECT_EQ(a.qct.count, b.qct.count);
  EXPECT_EQ(a.qct.mean, b.qct.mean);
  EXPECT_EQ(a.qct.max, b.qct.max);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_launched, b.queries_launched);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ttl_drops, b.ttl_drops);
  EXPECT_EQ(a.drops_by_reason, b.drops_by_reason);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.detoured_fraction, b.detoured_fraction);
  EXPECT_EQ(a.query_detour_share, b.query_detour_share);
  EXPECT_EQ(a.detour_count_p99, b.detour_count_p99);
  EXPECT_EQ(a.queueing_delay_us.count, b.queueing_delay_us.count);
  EXPECT_EQ(a.queueing_delay_us.mean, b.queueing_delay_us.mean);
  EXPECT_EQ(a.queueing_delay_us.max, b.queueing_delay_us.max);
  EXPECT_EQ(a.queueing_delay_us.p99, b.queueing_delay_us.p99);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.guard_trips, b.guard_trips);
  EXPECT_EQ(a.guard_transitions, b.guard_transitions);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

class CkptScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/dibs_ckpt_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    for (const char* name : {"run.ckpt", "ckpt.run0.ckpt", "ckpt.run1.ckpt"}) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(CkptScenarioTest, ResumeFromFinalBarrierMatchesUninterruptedRun) {
  const ExperimentConfig config = Tiny(DibsConfig());
  const std::string path = dir_ + "/run.ckpt";
  const uint64_t digest = DigestConfig(config);

  Scenario full(config);
  full.ArmCheckpoints(path, Time::Millis(20), digest);
  const ScenarioResult uninterrupted = full.Run();
  ASSERT_EQ(::access(path.c_str(), F_OK), 0) << "no snapshot was written";

  // A fresh scenario restored from the last barrier replays only the tail
  // of the run, yet must land on the identical result.
  Scenario resumed(config);
  ASSERT_TRUE(resumed.TryRestoreCheckpoint(path, digest));
  EXPECT_TRUE(resumed.restored_from_checkpoint());
  ExpectResultsEqual(resumed.Run(), uninterrupted);
}

TEST_F(CkptScenarioTest, RestoredStateReencodesToTheSavedBytes) {
  const ExperimentConfig config = Tiny(DibsConfig());
  const std::string path = dir_ + "/run.ckpt";
  const uint64_t digest = DigestConfig(config);

  Scenario writer(config);
  writer.ArmCheckpoints(path, Time::Millis(20), digest);
  writer.Run();

  Scenario reader(config);
  ASSERT_TRUE(reader.TryRestoreCheckpoint(path, digest));
  const json::Value saved = ckpt::ReadCheckpointFile(path);
  const json::Value reencoded = ckpt::DecodeCheckpointFile(
      reader.checkpoint_manager()->EncodeSnapshot());
  // The sim clock/id-epoch/RNG and every component must re-encode to the
  // exact bytes that were restored (encoding is canonical, so equal bytes
  // iff equal state). Top-level barrier/digest fields are manager-local.
  for (const char* section : {"sim", "components"}) {
    const json::Value* a = json::Find(saved, section);
    const json::Value* b = json::Find(reencoded, section);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(json::Dump(*a), json::Dump(*b)) << "section " << section;
  }
}

TEST_F(CkptScenarioTest, DamagedCheckpointFallsBackToIdenticalReplay) {
  const ExperimentConfig config = Tiny(DctcpConfig());
  const std::string path = dir_ + "/run.ckpt";
  const uint64_t digest = DigestConfig(config);

  Scenario writer(config);
  writer.ArmCheckpoints(path, Time::Millis(20), digest);
  const ScenarioResult uninterrupted = writer.Run();

  // Tear the file mid-state-line, as a crash mid-write would without the
  // atomic replace (and as bit rot would with it).
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(text.size(), 100u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }

  Scenario victim(config);
  EXPECT_FALSE(victim.TryRestoreCheckpoint(path, digest));
  // Contract: a failed restore leaves the scenario dirty — rebuild and
  // replay from scratch, which must reproduce the uninterrupted run.
  Scenario replay(config);
  EXPECT_FALSE(replay.restored_from_checkpoint());
  ExpectResultsEqual(replay.Run(), uninterrupted);
}

TEST_F(CkptScenarioTest, VersionOneCheckpointFallsBackToIdenticalReplay) {
  const ExperimentConfig config = Tiny(DibsConfig());
  const std::string path = dir_ + "/run.ckpt";
  const uint64_t digest = DigestConfig(config);

  Scenario writer(config);
  writer.ArmCheckpoints(path, Time::Millis(20), digest);
  const ScenarioResult uninterrupted = writer.Run();

  // A well-formed file from before the slot-packed event ids: intact digest,
  // old version number.
  json::Value state = ckpt::ReadCheckpointFile(path);
  state.fields["version"] = json::MakeInt(1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << ckpt::EncodeCheckpointFile(state);
  }

  Scenario victim(config);
  EXPECT_FALSE(victim.TryRestoreCheckpoint(path, digest));
  Scenario replay(config);
  ExpectResultsEqual(replay.Run(), uninterrupted);
}

TEST_F(CkptScenarioTest, ConfigDigestMismatchRefusesRestore) {
  const ExperimentConfig config = Tiny(DibsConfig());
  const std::string path = dir_ + "/run.ckpt";
  const uint64_t digest = DigestConfig(config);

  Scenario writer(config);
  writer.ArmCheckpoints(path, Time::Millis(20), digest);
  writer.Run();

  Scenario other(config);
  EXPECT_FALSE(other.TryRestoreCheckpoint(path, digest + 1));
}

// ---------------------------------------------------------------------------
// Sweep-level SIGKILL + resume (the production recovery path)

// Host-side fields that legitimately differ between executions: wall
// timing, and the attempt counter on the killed-and-resumed row.
std::string NormalizeHostFields(std::string line) {
  static const std::regex kWall(
      "\"wall_ms\":[^,]+,\"events_per_sec\":[^,]+,");
  static const std::regex kAttempts("\"attempts\":[0-9]+");
  line = std::regex_replace(line, kWall,
                            "\"wall_ms\":0,\"events_per_sec\":0,");
  return std::regex_replace(line, kAttempts, "\"attempts\":1");
}

TEST_F(CkptScenarioTest, KilledSweepRunResumesByteIdentical) {
  std::vector<RunSpec> runs(2);
  runs[0].index = 0;
  runs[0].config = Tiny(DibsConfig());
  runs[1].index = 1;
  runs[1].config = Tiny(DctcpConfig());

  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.isolate = IsolationMode::kProcess;
  opts.ckpt_dir = dir_;
  opts.ckpt_interval_ms = 20;

  const std::vector<RunRecord> baseline = SweepEngine(opts).RunAll("ckpt", runs);
  ASSERT_EQ(baseline.size(), 2u);
  ASSERT_EQ(baseline[0].status, RunStatus::kOk);

  // Kill run 0's child by SIGKILL right after its first durable barrier;
  // the retry must restore the snapshot and finish the run.
  SweepOptions kill_opts = opts;
  kill_opts.retry.max_attempts = 2;
  kill_opts.retry.initial_ms = 0;
  ASSERT_EQ(::setenv("DIBS_TEST_CKPT_KILL_RUN", "0", 1), 0);
  const std::vector<RunRecord> resumed = SweepEngine(kill_opts).RunAll("ckpt", runs);
  ASSERT_EQ(::unsetenv("DIBS_TEST_CKPT_KILL_RUN"), 0);

  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].status, RunStatus::kOk);
  EXPECT_EQ(resumed[0].attempts, 2);  // died once, resumed once
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(NormalizeHostFields(EncodeRunRecord(resumed[i])),
              NormalizeHostFields(EncodeRunRecord(baseline[i])))
        << "run " << i;
  }
  // Finished runs retire their snapshots.
  EXPECT_NE(::access((dir_ + "/ckpt.run0.ckpt").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir_ + "/ckpt.run1.ckpt").c_str(), F_OK), 0);
}

}  // namespace
}  // namespace dibs
