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
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  ++live_;
  PushKey(Key{when, id});
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
    RunOneEvent();
  }
  // An interrupted run leaves Now() at the last executed event rather than
  // jumping to `until`; the partial clock is part of the failure report.
  if (!stopped_ && !interrupted_ && now_ < until) {
    now_ = until;
  }
}

}  // namespace dibs
