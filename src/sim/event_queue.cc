#include "sim/event_queue.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::sim {

void
EventQueue::serialize(Serializer &s)
{
    s.section("eventqueue");
    if (size() != 0)
        throw SerializeError(
            s.saving()
                ? "checkpoint requires a drained event queue (quiesce "
                  "first): events are type-erased and unserializable"
                : "restore target has pending events (restore onto a "
                  "freshly booted, never-run machine)");
    s.io(curTick);
    s.io(nextSeq);
    s.io(nProcessed);
    s.io(pstats.created);
    s.io(pstats.acquired);
    s.io(pstats.released);
    s.io(pstats.heapFallbacks);
    if (s.loading()) {
        // Every node is free (the queue is empty); pre-grow the pool
        // to the saved node count so the continued run reuses nodes
        // exactly where the straight run did.
        if (pool.size() > pstats.created)
            throw SerializeError(
                "restore target's event pool exceeds the checkpoint's");
        while (pool.size() < pstats.created) {
            pool.push_back(std::make_unique<PooledEvent>());
            pool.back()->_pooled = true;
        }
        freeList = nullptr;
        for (auto &node : pool) {
            node->nextFree = freeList;
            freeList = node.get();
        }
    }
}

Event::~Event()
{
#ifndef NDEBUG
    if (scheduled()) {
        // A scheduled event's queue entry points here; destruction
        // would leave that pointer dangling. We cannot throw from a
        // destructor, so fail fast and loudly in debug builds.
        std::fprintf(stderr,
                     "panic: event '%s' destroyed while scheduled "
                     "(tick %llu)\n",
                     _name, static_cast<unsigned long long>(_when));
        std::abort();
    }
#endif
}

EventQueue::~EventQueue()
{
    // Mark every still-live event idle so that embedded events owned
    // by components destroyed after the queue do not trip the
    // destroyed-while-scheduled check; release pending pooled
    // callables so their captures are destroyed exactly once.
    for (const Entry &e : heap) {
        e.ev->_slot = Event::noSlot;
        if (e.ev->_pooled)
            static_cast<PooledEvent *>(e.ev)->destroyCallable();
    }
    // ~PooledEvent destroys any callable we missed; the pool vector
    // frees the nodes themselves.
}

PooledEvent *
EventQueue::growPool()
{
    ++pstats.created;
    pool.push_back(std::make_unique<PooledEvent>());
    pool.back()->_pooled = true;
    return pool.back().get();
}

void
EventQueue::schedulePanic(const Event *ev, Tick when) const
{
    if (ev->scheduled())
        panic("event '", ev->name(), "' scheduled twice");
    panic("event '", ev->name(), "' scheduled in the past (", when,
          " < ", curTick, ")");
}

void
EventQueue::siftDown(std::size_t i, const Entry &e)
{
    const std::size_t n = heap.size();
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < e))
            break;
        place(i, heap[child]);
        i = child;
    }
    place(i, e);
}

void
EventQueue::unlink(Event *ev)
{
    const std::size_t i = ev->_slot;
    ev->_slot = Event::noSlot;
    const Entry last = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return; // it was the last entry
    // The last entry fills the hole; it may belong above it or below.
    if (i > 0 && last < heap[(i - 1) / 2])
        siftUp(i, last);
    else
        siftDown(i, last);
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled())
        panic("descheduling idle event '", ev->name(), "'");
    unlink(ev);
    // A cancelled one-shot will never fire: drop its callable and
    // recycle the node now.
    if (ev->_pooled)
        releasePooled(static_cast<PooledEvent *>(ev));
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    // deschedule-if-scheduled + schedule: an idle event is accepted.
    // A pooled event keeps its callable — it must not bounce through
    // the free list on its way to the new tick.
    if (ev->scheduled())
        unlink(ev);
    schedule(ev, when);
}

EventQueue::StepOutcome
EventQueue::tryStep(Tick limit)
{
    if (heap.empty())
        return StepOutcome::drained;
    const Entry e = heap.front();
    if (e.when >= limit) {
        curTick = limit;
        return StepOutcome::atLimit;
    }
    unlink(e.ev);
#ifndef NDEBUG
    // Simulated time is monotonic; firing into the past means the
    // heap lost track of an earlier pending event.
    if (e.when < curTick)
        panic("event '", e.ev->name(), "' fired at tick ", e.when,
              " with simulated time already at ", curTick);
#endif
    curTick = e.when;

    Event *ev = e.ev;
    ++nProcessed;
    bool pooled = ev->_pooled;
    // Devirtualized dispatch for the pooled fast path: one indirect
    // call instead of a vtable hop into the same function pointer.
    if (pooled)
        static_cast<PooledEvent *>(ev)->invokeFn(
            static_cast<PooledEvent *>(ev));
    else
        ev->process();
    // The event may have (re)scheduled itself inside process(); only
    // recycle a pooled event once it is really done.
    if (pooled && !ev->scheduled())
        releasePooled(static_cast<PooledEvent *>(ev));
    return StepOutcome::fired;
}

bool
EventQueue::step()
{
    return tryStep(maxTick) == StepOutcome::fired;
}

Tick
EventQueue::run(Tick limit)
{
    while (tryStep(limit) == StepOutcome::fired) {
    }
    return curTick;
}

Tick
EventQueue::runWhile(const std::function<bool()> &cond, Tick limit)
{
    while (cond() && tryStep(limit) == StepOutcome::fired) {
    }
    return curTick;
}

} // namespace hwdp::sim
