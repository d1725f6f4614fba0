#include "common/event_queue.hh"

#include <utility>

namespace mtsim {

void
EventQueue::schedule(Cycle when, EventFn fn)
{
    heap_.push(Entry{when, nextSeq_++, std::move(fn)});
}

void
EventQueue::runUntil(Cycle now)
{
    while (!heap_.empty() && heap_.top().when <= now) {
        // Copy out before pop so the callback may schedule new events
        // (EventFn is trivially copyable: the copy allocates nothing).
        Entry e = heap_.top();
        heap_.pop();
        e.fn(e.when);
    }
}

void
EventQueue::clear()
{
    while (!heap_.empty())
        heap_.pop();
}

} // namespace mtsim
