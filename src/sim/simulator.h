// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence, closure) triples ordered by time with FIFO
// tie-breaking on the insertion sequence number, so two runs with identical
// inputs execute events in exactly the same order. All simulation randomness
// is drawn from the simulator-owned Rng, making runs reproducible from the
// seed alone.
//
// Event core layout: the binary heap holds 16-byte (when, id) keys only;
// each closure lives in a slot of a pooled vector (reused through a free
// list) that records the id currently occupying it. An EventId packs the
// scheduling sequence above the slot index,
// `id = seq << kEventSlotBits | slot`, so comparing ids compares sequences
// and FIFO tie-breaking is unchanged.
// Cancelling vacates the slot; the heap key left behind is stale (its slot
// no longer holds its id) and is skipped when it surfaces. No hash lookup,
// and no closure moves while the heap sifts.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/rng.h"

namespace dibs {

// Handle for a scheduled event, usable with Cancel(). Id 0 is never issued.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Low bits of an EventId index its closure slot; the high bits carry the
// scheduling sequence. At most 2^24 events may be pending at once and at most
// 2^40 may be issued over a simulator's life (both checked).
inline constexpr int kEventSlotBits = 24;
inline constexpr EventId kEventSlotMask = (EventId{1} << kEventSlotBits) - 1;
inline constexpr uint64_t kMaxEventSeq = uint64_t{1} << (64 - kEventSlotBits);

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulation time. Only advances inside Run*().
  Time Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays are clamped to 0
  // in release builds and assert in debug builds.
  EventId Schedule(Time delay, std::function<void()> fn);

  // Schedules `fn` at absolute time `when` (must be >= Now()).
  EventId ScheduleAt(Time when, std::function<void()> fn);

  // Cancels a pending event and releases its closure. Any other id — already
  // fired, already cancelled, never issued, or kInvalidEventId — is an exact
  // no-op: it never touches a later event that reuses the slot, and never
  // changes pending_events(). An event may cancel its own id while it runs;
  // that is a no-op too.
  void Cancel(EventId id);

  // Runs until the event queue drains or Stop() is called.
  void Run();

  // Runs every event with timestamp <= `until`, then sets Now() == `until`.
  void RunUntil(Time until);

  // Convenience: RunUntil(Now() + duration).
  void RunFor(Time duration) { RunUntil(now_ + duration); }

  // Makes Run*() return after the current event completes.
  void Stop() { stopped_ = true; }

  // --- Cooperative cancellation (used by the sweep engine, src/exp) ---
  //
  // A budget or interrupt check makes a runaway simulation abandon its run
  // cleanly: Run*() returns after the current event, interrupted() flips to
  // true, and the caller decides what to do with the partial state. Both are
  // off by default and cost nothing when unset.

  // Hard cap on total events processed; 0 means unlimited.
  void SetEventBudget(uint64_t max_events) { event_budget_ = max_events; }

  // `check` is polled every `check_every` events; returning true interrupts
  // the run. The sweep engine installs a wall-clock deadline here; it is the
  // *cooperative* half of that engine's timeout story — a run wedged outside
  // the event loop never reaches the poll, which is what the process-mode
  // hard watchdog (src/exp/process_runner.h) exists for.
  void SetInterruptCheck(std::function<bool()> check, uint64_t check_every = 4096);

  // True once a budget or interrupt check has fired. Sticky: later Run*()
  // calls return immediately until the budget/check is cleared.
  bool interrupted() const { return interrupted_; }

  Rng& rng() { return rng_; }

  uint64_t events_processed() const { return events_processed_; }

  // Exact number of scheduled events that have neither fired nor been
  // cancelled (the event running now is no longer pending).
  size_t pending_events() const { return live_; }

  // Every id issued so far is below this value (the next Schedule/ScheduleAt
  // call is issued this value's sequence; its slot bits are zero here).
  EventId next_event_id() const { return next_seq_ << kEventSlotBits; }

 private:
  // Heap key: the closure stays in its slot, so a sift moves 16 bytes.
  struct Key {
    Time when;
    EventId id;
  };
  static_assert(sizeof(Key) == 16, "heap keys must stay two words");

  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;  // earlier-scheduled events fire first on ties
    }
  };

  // A closure's home. `id` is the occupant's EventId, kInvalidEventId when
  // the slot is free; a heap key is live iff its slot still holds its id.
  struct Slot {
    EventId id = kInvalidEventId;
    std::function<void()> fn;
  };

  static size_t SlotOf(EventId id) { return static_cast<size_t>(id & kEventSlotMask); }
  bool IsLive(const Key& key) const { return slots_[SlotOf(key.id)].id == key.id; }

  // Vacates `slot` and hands back its closure, so the caller can run or drop
  // it after the pool is consistent again (a closure's destructor or body
  // may schedule, which can reallocate the pool).
  std::function<void()> Release(size_t slot) {
    Slot& s = slots_[slot];
    s.id = kInvalidEventId;
    free_.push_back(static_cast<uint32_t>(slot));
    --live_;
    std::function<void()> fn = std::move(s.fn);
    s.fn = nullptr;
    return fn;
  }

  void PushKey(Key key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), KeyLater());
  }
  void PopKey() {
    std::pop_heap(heap_.begin(), heap_.end(), KeyLater());
    heap_.pop_back();
  }

  // Pops stale keys off the heap top until a live one (or nothing) remains.
  void SkipStale() {
    while (!heap_.empty() && !IsLive(heap_.front())) {
      PopKey();
    }
  }

  // Pops and runs the earliest live event. Returns false when none is left.
  bool RunOneEvent();

  // Applies the event budget / interrupt check; true when the run must stop.
  bool CheckInterrupt();

  friend class SimulatorTestPeer;  // tests/sim: reaches the sequence cap directly

  Time now_;
  uint64_t next_seq_ = 1;  // sequence 0 is never issued, so neither is id 0
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  bool interrupted_ = false;
  uint64_t event_budget_ = 0;
  uint64_t check_every_ = 4096;
  std::function<bool()> interrupt_check_;
  std::vector<Key> heap_;         // binary heap under KeyLater; may hold stale keys
  std::vector<Slot> slots_;       // closure pool, indexed by SlotOf(id)
  std::vector<uint32_t> free_;    // vacant slot indices, LIFO
  size_t live_ = 0;               // occupied slots == pending events
  Rng rng_;
};

}  // namespace dibs

#endif  // SRC_SIM_SIMULATOR_H_
