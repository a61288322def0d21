#include "sim/event_queue.hh"

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
        while (pool.size() < pstats.created)
            pool.push_back(std::make_unique<PooledEvent>());
        freeList = nullptr;
        for (auto &node : pool) {
            node->nextFree = freeList;
            freeList = node.get();
        }
    }
}

PooledEvent *
EventQueue::growPool()
{
    ++pstats.created;
    pool.push_back(std::make_unique<PooledEvent>());
    return pool.back().get();
}

void
EventQueue::postPanic(const char *name, Tick when) const
{
    panic("event '", name, "' posted in the past (", when, " < ", curTick,
          ")");
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
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = e;
}

EventQueue::StepOutcome
EventQueue::tryStep(Tick limit)
{
    if (heap.empty())
        return StepOutcome::drained;
    const Entry e = heap.front();
    if (e.when >= limit) {
        // The clock runs up to the limit, never back.
        if (limit > curTick)
            curTick = limit;
        return StepOutcome::atLimit;
    }
    const Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, last);
#ifndef NDEBUG
    // Simulated time is monotonic; firing into the past means the
    // heap lost track of an earlier pending event.
    if (e.when < curTick)
        panic("event '", e.ev->name, "' fired at tick ", e.when,
              " with simulated time already at ", curTick);
#endif
    curTick = e.when;
    ++nProcessed;
    e.ev->invokeFn(e.ev);
    releasePooled(e.ev);
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
