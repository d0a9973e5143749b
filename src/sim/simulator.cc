#include "src/sim/simulator.h"

#include <sstream>
#include <utility>

#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

EventId Simulator::Schedule(Time delay, std::function<void()> fn) {
  DIBS_DCHECK(delay >= Time::Zero());
  if (delay < Time::Zero()) {
    delay = Time::Zero();
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, std::function<void()> fn) {
  if (validate::Enabled() && when < now_) {
    std::ostringstream os;
    os << "event scheduled into the past: " << when << " < now " << now_
       << " (events processed: " << events_processed_ << ")";
    validate::Fail("sim.schedule-past", os.str());
  }
  DIBS_CHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
  DIBS_CHECK(next_seq_ < kMaxEventSeq) << "event sequence space exhausted";
  if (free_list_stale_) {
    RebuildFreeList();
  }
  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = slots_.size();
    DIBS_CHECK(slot <= kEventSlotMask) << "more than 2^" << kEventSlotBits << " pending events";
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kEventSlotBits) | slot;
  Occupy(slot, when, id, std::move(fn));
  return id;
}

void Simulator::Cancel(EventId id) {
  const size_t slot = SlotOf(id);
  if (id == kInvalidEventId || slot >= slots_.size() || slots_[slot].id != id) {
    return;
  }
  // The closure dies here, after the pool is consistent; its heap key turns
  // stale and is skipped when it reaches the top.
  Release(slot);
}

bool Simulator::RunOneEvent() {
  SkipStale();
  if (heap_.empty()) {
    return false;
  }
  const Key key = heap_.front();
  PopKey();
  // The closure leaves its slot before running: the body may schedule into
  // the freed slot or reallocate the pool, and cancelling its own id is then
  // a no-op.
  const std::function<void()> fn = Release(SlotOf(key.id));
  if (validate::Enabled() && key.when < now_) {
    std::ostringstream os;
    os << "event timestamp regressed: popped event " << key.id << " at " << key.when
       << " behind clock " << now_ << " (events processed: " << events_processed_ << ")";
    validate::Fail("sim.time-regression", os.str());
  }
  DIBS_DCHECK(key.when >= now_);
  now_ = key.when;
  ++events_processed_;
  fn();
  return true;
}

void Simulator::SetInterruptCheck(std::function<bool()> check, uint64_t check_every) {
  DIBS_CHECK_GT(check_every, 0u);
  interrupt_check_ = std::move(check);
  check_every_ = check_every;
}

bool Simulator::CheckInterrupt() {
  if (interrupted_) {
    return true;
  }
  if (event_budget_ != 0 && events_processed_ >= event_budget_) {
    interrupted_ = true;
  } else if (interrupt_check_ && events_processed_ % check_every_ == 0 &&
             interrupt_check_()) {
    interrupted_ = true;
  }
  return interrupted_;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && !CheckInterrupt() && RunOneEvent()) {
  }
}

void Simulator::RunUntil(Time until) {
  DIBS_CHECK(until >= now_);
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) {
    if (CheckInterrupt()) {
      break;
    }
    // Peek through stale keys without running live events early.
    const Key top = heap_.front();
    if (!IsLive(top)) {
      PopKey();
      continue;
    }
    if (top.when > until) {
      break;
    }
    if (barrier_interval_ > Time::Zero()) {
      MaybeFireBarriers(top.when, until);
      if (stopped_ || heap_.empty()) {
        continue;  // re-evaluate loop conditions; hooks never add events
      }
    }
    RunOneEvent();
  }
  // An interrupted run leaves Now() at the last executed event rather than
  // jumping to `until`; the partial clock is part of the failure report.
  if (!stopped_ && !interrupted_ && now_ < until) {
    now_ = until;
  }
}

void Simulator::SetCheckpointBarrier(Time interval, std::function<void()> hook) {
  barrier_interval_ = interval;
  barrier_hook_ = std::move(hook);
  if (interval <= Time::Zero()) {
    barrier_interval_ = Time();
    barrier_hook_ = nullptr;
    return;
  }
  // First barrier strictly after the current clock, on the interval grid.
  // After a restore Now() sits exactly on a barrier, so "strictly after"
  // also keeps a resumed run from re-writing the checkpoint it came from.
  const int64_t periods = now_.nanos() / interval.nanos();
  next_barrier_ = Time::Nanos((periods + 1) * interval.nanos());
}

void Simulator::MaybeFireBarriers(Time next_when, Time until) {
  while (barrier_hook_ && next_barrier_ <= next_when && next_barrier_ <= until) {
    if (next_barrier_ > now_) {
      // Invisible clock hop, same as RunUntil's trailing `now_ = until`: no
      // event runs between here and the next pop, so nothing observes it.
      now_ = next_barrier_;
    }
    barrier_hook_();
    next_barrier_ = next_barrier_ + barrier_interval_;
  }
}

std::vector<std::pair<Time, EventId>> Simulator::PendingEventKeys() const {
  std::vector<std::pair<Time, EventId>> keys;
  keys.reserve(live_);
  for (const Key& key : heap_) {
    if (IsLive(key)) {
      keys.emplace_back(key.when, key.id);
    }
  }
  return keys;
}

void Simulator::BeginRestore(Time now, EventId next_id, uint64_t events_processed) {
  DIBS_CHECK(next_id != kInvalidEventId && (next_id & kEventSlotMask) == 0)
      << "checkpointed next id " << next_id << " is not an id epoch (slot bits set)";
  heap_.clear();
  slots_.clear();
  free_.clear();
  free_list_stale_ = true;
  live_ = 0;
  now_ = now;
  next_seq_ = next_id >> kEventSlotBits;
  events_processed_ = events_processed;
  stopped_ = false;
  interrupted_ = false;
}

void Simulator::RestoreEventAt(Time when, EventId id, std::function<void()> fn) {
  DIBS_CHECK(id != kInvalidEventId && id < next_event_id())
      << "restored event id " << id << " outside checkpoint epoch (next id " << next_event_id()
      << ")";
  DIBS_CHECK(when >= now_) << "restored event in the past: " << when << " < " << now_;
  const size_t slot = SlotOf(id);
  if (slot >= slots_.size()) {
    slots_.resize(slot + 1);
  }
  DIBS_CHECK(slots_[slot].id == kInvalidEventId)
      << "restored event id " << id << " reuses the live slot of event " << slots_[slot].id;
  Occupy(slot, when, id, std::move(fn));
}

void Simulator::RebuildFreeList() {
  free_.clear();
  for (size_t slot = slots_.size(); slot-- > 0;) {
    if (slots_[slot].id == kInvalidEventId) {
      free_.push_back(static_cast<uint32_t>(slot));
    }
  }
  free_list_stale_ = false;
}

}  // namespace dibs
