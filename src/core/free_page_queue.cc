#include "core/free_page_queue.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
FreePageQueue::serialize(sim::Serializer &s)
{
    s.section("freepagequeue");
    s.check(cap, "free queue capacity");
    s.check(depth, "free queue prefetch depth");
    s.io(prefetchOn);
    s.io(ring);
    s.io(buffer);
}

FreePageQueue::FreePageQueue(std::uint64_t capacity,
                             unsigned prefetch_depth,
                             sim::StatRegistry *reg, std::string name)
    : cap(capacity), depth(prefetch_depth), grp(std::move(name), reg),
      statPops(grp, "pops", "free-page pops"),
      statBufferHits(grp, "buffer_hits",
                     "pops served by the prefetch buffer"),
      statEmptyPops(grp, "empty_pops", "pops that found the queue dry")
{
    if (capacity == 0)
        fatal("free page queue: zero capacity");
}

bool
FreePageQueue::push(Pfn pfn)
{
    if (ring.size() >= cap)
        return false;
    ring.push_back(pfn);
    return true;
}

FreePageQueue::PopResult
FreePageQueue::pop(Tick mem_round_trip)
{
    ++statPops;
    PopResult r;
    if (dryHook && dryHook()) {
        ++statEmptyPops;
        return r;
    }
    if (!buffer.empty()) {
        r.ok = true;
        r.pfn = buffer.front();
        buffer.pop_front();
        r.latency = 0;
        ++statBufferHits;
        return r;
    }
    if (!ring.empty()) {
        r.ok = true;
        r.pfn = ring.front();
        ring.pop_front();
        r.latency = mem_round_trip; // exposed memory read
        return r;
    }
    ++statEmptyPops;
    return r;
}

void
FreePageQueue::refillPrefetch()
{
    if (!prefetchOn)
        return;
    while (buffer.size() < depth && !ring.empty()) {
        buffer.push_back(ring.front());
        ring.pop_front();
    }
}

void
FreePageQueue::forEachPfn(const std::function<void(Pfn)> &fn) const
{
    for (Pfn pfn : buffer)
        fn(pfn);
    for (Pfn pfn : ring)
        fn(pfn);
}

void
FreePageQueue::setPrefetchEnabled(bool on)
{
    prefetchOn = on;
    if (!on) {
        // Spill buffered entries back so none are stranded.
        while (!buffer.empty()) {
            ring.push_front(buffer.back());
            buffer.pop_back();
        }
    }
}

} // namespace hwdp::core
