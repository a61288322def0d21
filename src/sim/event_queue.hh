/**
 * @file
 * Discrete-event simulation core: EventQueue and its pooled one-shot
 * events.
 *
 * Every event is a one-shot posted at an absolute tick (post()/postIn())
 * that fires exactly once: nothing cancels it, moves it or holds it
 * from outside the queue. Events at the same tick fire in posting
 * (FIFO) order, which keeps component interactions deterministic. The
 * queue owns the events: each is a node of its free-list pool,
 * recycled after firing, so once the pool and the heap have grown to
 * the peak number of pending events the queue allocates nothing.
 *
 * The scheduler is one binary min-heap of (tick, seq, node) entries.
 * Memory accesses, walks and fault-chain hops run inline, so only a
 * handful of events is ever pending (DESIGN.md §6c) and a heap of that
 * depth is a few cache lines.
 */

#ifndef HWDP_SIM_EVENT_QUEUE_HH
#define HWDP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {

class Serializer;

/**
 * A reusable one-shot event carrying a type-erased callable in an
 * inline small-buffer (captures larger than inlineCapacity fall back
 * to a heap allocation, counted in PoolStats::heapFallbacks). Only
 * EventQueue creates these; they recycle through the queue's free
 * list, so the steady-state path performs no allocation.
 */
class PooledEvent
{
  public:
    /** Sized to hold every capture in the tree (see PoolStats). */
    static constexpr std::size_t inlineCapacity = 192;

    PooledEvent() = default;
    ~PooledEvent() { destroyCallable(); }

    PooledEvent(const PooledEvent &) = delete;
    PooledEvent &operator=(const PooledEvent &) = delete;

  private:
    friend class EventQueue;

    /** Install a callable; returns false on heap fallback. */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (storage) Fn(std::forward<F>(fn));
            invokeFn = [](PooledEvent *self) {
                (*std::launder(reinterpret_cast<Fn *>(self->storage)))();
            };
            // Most captures are a couple of pointers: nothing to
            // destroy, so the recycle path skips the indirect call.
            // destroyFn is already null here: construction and
            // destroyCallable() both leave it null, and emplace()
            // only runs on fresh or recycled nodes.
            if constexpr (!std::is_trivially_destructible_v<Fn>) {
                destroyFn = [](PooledEvent *self) {
                    std::launder(reinterpret_cast<Fn *>(self->storage))
                        ->~Fn();
                };
            }
            return true;
        } else {
            heapFn = new Fn(std::forward<F>(fn));
            invokeFn = [](PooledEvent *self) {
                (*static_cast<Fn *>(self->heapFn))();
            };
            destroyFn = [](PooledEvent *self) {
                delete static_cast<Fn *>(self->heapFn);
                self->heapFn = nullptr;
            };
            return false;
        }
    }

    void
    destroyCallable()
    {
        if (destroyFn) {
            destroyFn(this);
            destroyFn = nullptr;
        }
        invokeFn = nullptr;
    }

    // The hooks and links come first, so that a small capture shares
    // their cache line.
    void (*invokeFn)(PooledEvent *) = nullptr;
    void (*destroyFn)(PooledEvent *) = nullptr;
    PooledEvent *nextFree = nullptr;
    void *heapFn = nullptr;
    /** A string literal, stored by pointer (diagnostics only). */
    const char *name = "pooled.idle";
    alignas(std::max_align_t) unsigned char storage[inlineCapacity];
};

/**
 * A tick-ordered queue of events with deterministic same-tick FIFO
 * ordering. One queue drives one simulated machine; queues share no
 * state, so independent machines may run on concurrent host threads
 * (bench::SweepRunner relies on this).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Tick of the earliest pending event, or maxTick when the queue
     * is empty. Work run synchronously at logical times strictly
     * before this tick cannot be reordered against any pending event:
     * it is the inline-execution batch horizon and hop()'s gate.
     */
    Tick
    nextEventTick() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

    /**
     * One-shot event at absolute tick @p when: the callable is moved
     * into a pooled event that fires once and is then recycled.
     * @p name must be a string literal (it is stored by pointer, never
     * copied).
     * @pre when >= now()
     */
    template <typename F>
    void
    post(Tick when, F &&fn, const char *name = "lambda")
    {
        if (when < curTick) [[unlikely]]
            postPanic(name, when);
        PooledEvent *ev = acquirePooled();
        if (!ev->emplace(std::forward<F>(fn)))
            ++pstats.heapFallbacks;
        ev->name = name;
        heap.emplace_back();
        siftUp(heap.size() - 1, Entry{when, nextSeq++, ev});
    }

    /** One-shot event @p delta ticks from now. */
    template <typename F>
    void
    postIn(Tick delta, F &&fn, const char *name = "lambda")
    {
        post(now() + delta, std::forward<F>(fn), name);
    }

    /**
     * One hop of a chain that runs on a logical clock: @p fn(t) runs
     * right here when @p inline_ok and @p t is before every pending
     * event — nothing can execute between now() and @p t, so running
     * it early is indistinguishable from the event firing there.
     * Otherwise @p fn(t) is posted as event @p name at @p t, where it
     * runs with t == now(). @p inline_ok carries what the caller must
     * add, e.g. that the code left in the current event pushes nothing
     * the hop could reorder against. Returns true when it ran inline.
     * @pre t >= now()
     */
    template <typename F>
    bool
    hop(Tick t, bool inline_ok, F &&fn, const char *name)
    {
        // A past tick never runs inline: post() panics on it.
        if (inline_ok && t >= curTick && t < nextEventTick()) {
            fn(t);
            return true;
        }
        post(t, [fn = std::forward<F>(fn), t]() mutable { fn(t); }, name);
        return false;
    }

    /** True when no events remain. */
    bool empty() const { return size() == 0; }

    /** Number of events awaiting processing. */
    std::size_t size() const { return heap.size(); }

    /** Process a single event; returns false if the queue was empty. */
    bool step();

    /**
     * Run until the queue drains or @p limit ticks is reached
     * (exclusive). Returns the tick of the last processed event.
     */
    Tick run(Tick limit = maxTick);

    /** Run while @p cond holds and events remain. */
    Tick runWhile(const std::function<bool()> &cond, Tick limit = maxTick);

    /** Total number of events processed since construction. */
    std::uint64_t processedCount() const { return nProcessed; }

    /** Allocation behaviour of the pooled one-shot path. */
    struct PoolStats
    {
        /** Pool nodes ever heap-allocated (bounded by the maximum
         *  number of simultaneously pending one-shots). */
        std::uint64_t created = 0;
        /** post() calls served; acquired - created = reuses. */
        std::uint64_t acquired = 0;
        /** Events returned to the free list after firing. */
        std::uint64_t released = 0;
        /** Captures too large for the inline buffer (heap path). */
        std::uint64_t heapFallbacks = 0;
    };

    const PoolStats &poolStats() const { return pstats; }

    /**
     * Checkpoint the queue. Events themselves are type-erased
     * callables and cannot be serialized, so the queue must be EMPTY
     * (fully drained — the quiesce contract) on both sides; what
     * round-trips is the clock, the FIFO sequence counter (same-tick
     * ordering after restore depends on it), the processed count and
     * the pool accounting. On load the pooled free list is pre-grown
     * to the saved node count so host allocation behaviour (and the
     * PoolStats invariants) match the straight run exactly.
     */
    void serialize(Serializer &s);

    /**
     * The machine's stat groups, in the order their components were
     * built. The queue carries the list because it is the one object
     * every component of a machine already holds.
     */
    StatRegistry &statRegistry() { return statGroups; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        PooledEvent *ev;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /**
     * Pending events, a binary min-heap by (when, seq): the children
     * of slot i are 2i+1 and 2i+2.
     */
    std::vector<Entry> heap;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t nProcessed = 0;

    // Pooled one-shot free list; pool owns the nodes.
    std::vector<std::unique_ptr<PooledEvent>> pool;
    PooledEvent *freeList = nullptr;
    PoolStats pstats;

    inline PooledEvent *acquirePooled();
    inline void releasePooled(PooledEvent *ev);

    /** Slow path of acquirePooled(): allocate a new pool node. */
    PooledEvent *growPool();

    /** Report a post() into the past. */
    [[noreturn]] void postPanic(const char *name, Tick when) const;

    /** Fill the hole at slot @p i with @p e, moving parents down. */
    inline void siftUp(std::size_t i, const Entry &e);

    /** Fill the hole at slot @p i with @p e, moving children up. */
    void siftDown(std::size_t i, const Entry &e);

    enum class StepOutcome { fired, drained, atLimit };
    StepOutcome tryStep(Tick limit);

    StatRegistry statGroups;
};

// The post and pool hot paths are defined inline so that post() call
// sites compile down to straight-line code: the one-shot fast path
// (acquire + emplace + heap insert) performs no out-of-line calls at
// all.

inline void
EventQueue::siftUp(std::size_t i, const Entry &e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!(e < heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

inline PooledEvent *
EventQueue::acquirePooled()
{
    ++pstats.acquired;
    if (freeList) [[likely]] {
        PooledEvent *ev = freeList;
        freeList = ev->nextFree;
        return ev;
    }
    return growPool();
}

inline void
EventQueue::releasePooled(PooledEvent *ev)
{
    ev->destroyCallable();
    ev->nextFree = freeList;
    freeList = ev;
    ++pstats.released;
}

} // namespace hwdp::sim

#endif // HWDP_SIM_EVENT_QUEUE_HH
