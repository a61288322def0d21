/**
 * @file
 * Discrete-event simulation core: Event, EventQueue and the pooled
 * one-shot event fast path.
 *
 * Events are scheduled at absolute ticks and processed in tick order;
 * events at the same tick run in scheduling (FIFO) order, which keeps
 * component interactions deterministic. Events are externally owned:
 * the queue never deletes them, so components can embed events as
 * members (the gem5 pattern). The exception is the pooled one-shot
 * path (post()/postIn()): those events belong to the queue's free-list
 * pool and are recycled after firing.
 *
 * The scheduler is one binary min-heap of (tick, seq) entries. Memory
 * accesses, walks and fault-chain hops run inline, so only a handful
 * of events is ever pending (DESIGN.md §6c) and a heap of that depth
 * is a few cache lines. Each scheduled event records its heap slot, so
 * deschedule() and reschedule() remove it in place: nothing stale is
 * left behind, and once the heap's vector has grown to the peak
 * number of pending events the queue allocates nothing.
 */

#ifndef HWDP_SIM_EVENT_QUEUE_HH
#define HWDP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {

class EventQueue;
class PooledEvent;
class Serializer;

/**
 * An occurrence scheduled on an EventQueue. Subclasses implement
 * process(). An event may be scheduled on at most one queue at a time.
 *
 * Names: the common constructor takes a string literal (or other
 * pointer with static storage duration) and stores only the pointer —
 * the fast path never allocates. The std::string overload exists for
 * dynamically named events (tests, debugging) and owns its copy.
 */
class Event
{
  public:
    explicit Event(const char *static_name = "event")
        : _name(static_name)
    {
    }

    /** Dynamically named event: owns a copy of @p name (slow path). */
    explicit Event(std::string name)
        : _ownedName(std::make_unique<std::string>(std::move(name)))
    {
        _name = _ownedName->c_str();
    }

    /**
     * Destroying a still-scheduled event would leave a dangling
     * pointer in the queue; debug builds abort loudly instead of
     * corrupting memory later. Deschedule before destruction.
     */
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /** True while the event sits on a queue awaiting processing. */
    bool scheduled() const { return _slot != noSlot; }

    /** The tick this event will fire at; valid only when scheduled. */
    Tick when() const { return _when; }

    const char *name() const { return _name; }

  private:
    friend class EventQueue;

    static constexpr std::size_t noSlot = ~std::size_t(0);

    const char *_name;
    /** Only set for dynamically named events; _name points into it. */
    std::unique_ptr<std::string> _ownedName;
    /** Owned by an EventQueue's free-list pool (post()/postIn()). */
    bool _pooled = false;
    Tick _when = 0;
    /** Slot of this event's entry in its queue's heap; noSlot while idle. */
    std::size_t _slot = noSlot;
};

/**
 * A reusable one-shot event carrying a type-erased callable in an
 * inline small-buffer (captures larger than inlineCapacity fall back
 * to a heap allocation, counted in PoolStats::heapFallbacks). Only
 * EventQueue creates these; they recycle through the queue's free
 * list, so the steady-state one-shot path performs no allocation.
 */
class PooledEvent final : public Event
{
  public:
    /** Sized to hold every capture in the tree (see PoolStats). */
    static constexpr std::size_t inlineCapacity = 192;

    PooledEvent() : Event("pooled.idle") {}
    ~PooledEvent() override { destroyCallable(); }

    void process() override { invokeFn(this); }

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

    alignas(std::max_align_t) unsigned char storage[inlineCapacity];
    void *heapFn = nullptr;
    void (*invokeFn)(PooledEvent *) = nullptr;
    void (*destroyFn)(PooledEvent *) = nullptr;
    PooledEvent *nextFree = nullptr;
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
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Tick of the earliest pending event, or maxTick when the queue
     * is empty. Work run synchronously at logical times strictly
     * before this tick cannot be reordered against any scheduled
     * event: it is the inline-execution batch horizon and hop()'s
     * gate.
     */
    Tick
    nextEventTick() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

    /**
     * Schedule @p ev at absolute tick @p when.
     * @pre !ev->scheduled() && when >= now()
     */
    inline void schedule(Event *ev, Tick when);

    /** Schedule @p ev @p delta ticks from now. */
    void scheduleIn(Event *ev, Tick delta) { schedule(ev, now() + delta); }

    /**
     * Remove a scheduled event from the queue without processing it.
     * @pre ev->scheduled() — descheduling an idle event is a bug.
     */
    void deschedule(Event *ev);

    /**
     * Move an event to a new (future) tick. Explicit semantics:
     * deschedule-if-scheduled, then schedule — an unscheduled event is
     * accepted and simply scheduled, so periodic events may reschedule
     * themselves from inside process() without checking scheduled().
     */
    void reschedule(Event *ev, Tick when);

    /**
     * One-shot continuation at absolute tick @p when: the callable is
     * moved into a pooled event recycled after firing. @p name must be
     * a string literal (it is stored by pointer, never copied). The
     * returned handle stays valid until the event fires or is
     * descheduled; use it with reschedule()/deschedule() only.
     */
    template <typename F>
    Event *
    post(Tick when, F &&fn, const char *name = "lambda")
    {
        PooledEvent *ev = acquirePooled();
        if (!ev->emplace(std::forward<F>(fn)))
            ++pstats.heapFallbacks;
        ev->_name = name;
        try {
            schedule(ev, when);
        } catch (...) {
            releasePooled(ev);
            throw;
        }
        return ev;
    }

    /** One-shot continuation @p delta ticks from now. */
    template <typename F>
    Event *
    postIn(Tick delta, F &&fn, const char *name = "lambda")
    {
        return post(now() + delta, std::forward<F>(fn), name);
    }

    /**
     * One hop of a chain that runs on a logical clock: @p fn(t) runs
     * right here when @p inline_ok and @p t is before every scheduled
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
        /** Events returned to the free list after firing/cancel. */
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
        Event *ev;

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
     * of slot i are 2i+1 and 2i+2, and heap[i].ev->_slot == i.
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

    /** Diagnose and report a schedule() precondition violation. */
    void schedulePanic(const Event *ev, Tick when) const;

    /** Store @p e at slot @p i and tell its event where it is. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap[i] = e;
        e.ev->_slot = i;
    }

    /** Fill the hole at slot @p i with @p e, moving parents down. */
    inline void siftUp(std::size_t i, const Entry &e);

    /** Fill the hole at slot @p i with @p e, moving children up. */
    void siftDown(std::size_t i, const Entry &e);

    /** Take a scheduled event's entry out of the heap. */
    void unlink(Event *ev);

    enum class StepOutcome { fired, drained, atLimit };
    StepOutcome tryStep(Tick limit);

    StatRegistry statGroups;
};

// The schedule and pool hot paths are defined inline so that post()
// and scheduleIn() call sites compile down to straight-line code: the
// one-shot fast path (acquire + emplace + heap insert) performs no
// out-of-line calls at all.

inline void
EventQueue::siftUp(std::size_t i, const Entry &e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!(e < heap[parent]))
            break;
        place(i, heap[parent]);
        i = parent;
    }
    place(i, e);
}

inline void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled() || when < curTick) [[unlikely]]
        schedulePanic(ev, when);
    ev->_when = when;
    heap.emplace_back();
    siftUp(heap.size() - 1, Entry{when, nextSeq++, ev});
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
