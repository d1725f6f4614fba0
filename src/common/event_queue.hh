/**
 * @file
 * A small discrete-event queue used by the memory systems. The
 * processor core is cycle-driven; memory completions, bus transfers
 * and bank releases are events scheduled onto this queue and drained
 * at the top of every processor cycle.
 */

#ifndef MTSIM_COMMON_EVENT_QUEUE_HH
#define MTSIM_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace mtsim {

/**
 * Callback fired when an event's cycle is reached. It holds its
 * callable inline, so scheduling, copying and running an event never
 * allocate: the callable must be trivially copyable (a lambda that
 * captures pointers and values) and fit in kCaptureBytes.
 */
class EventFn
{
  public:
    static constexpr std::size_t kCaptureBytes = 32;

    template <class F>
        requires std::is_invocable_v<const F &, Cycle>
    EventFn(F f) // implicit, like std::function
        : call_([](const void *fn, Cycle when) {
              (*std::launder(static_cast<const F *>(fn)))(when);
          })
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "an event callback must be trivially copyable");
        static_assert(sizeof(F) <= kCaptureBytes &&
                          alignof(F) <= alignof(std::max_align_t),
                      "an event callback's captures must fit inline");
        ::new (static_cast<void *>(buf_)) F(f);
    }

    void operator()(Cycle when) const { call_(buf_, when); }

  private:
    alignas(std::max_align_t) unsigned char buf_[kCaptureBytes];
    void (*call_)(const void *, Cycle);
};

/**
 * Min-heap of (cycle, sequence, callback). Ties are broken by
 * insertion order so the simulation is deterministic.
 */
class EventQueue
{
  public:
    /** Schedule @p fn to run at absolute cycle @p when. */
    void schedule(Cycle when, EventFn fn);

    /** Run every event scheduled at or before @p now, in order. */
    void runUntil(Cycle now);

    /** Cycle of the earliest pending event, or kCycleNever. Inline
     *  so per-cycle "anything due?" guards cost one compare. */
    Cycle
    nextEventCycle() const
    {
        return heap_.empty() ? kCycleNever : heap_.top().when;
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Drop all pending events (used between experiment runs). */
    void clear();

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        EventFn fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace mtsim

#endif // MTSIM_COMMON_EVENT_QUEUE_HH
