/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::sim;

namespace {

/** Post a one-shot at @p when that appends @p id to @p log. */
void
record(EventQueue &eq, std::vector<int> &log, int id, Tick when)
{
    eq.post(when, [&log, id] { log.push_back(id); }, "rec");
}

} // namespace

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessesInTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 2, 200);
    record(eq, log, 1, 100);
    record(eq, log, 3, 300);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 50);
    record(eq, log, 2, 50);
    record(eq, log, 3, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 100);
    eq.run();
    EXPECT_THROW(record(eq, log, 2, 50), PanicError);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, PostedOneShotsFireAndRecycle)
{
    EventQueue eq;
    int fired = 0;
    eq.post(10, [&] { ++fired; });
    eq.postIn(20, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.poolStats().released, 2u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.post(10, [&] { ++fired; });
    eq.post(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunLimitBehindTheClockLeavesItAlone)
{
    EventQueue eq;
    eq.post(100, [] {});
    eq.run(50);
    EXPECT_EQ(eq.now(), 50u);
    // A limit the clock has already passed must not move it back.
    eq.run(20);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_THROW(eq.post(30, [] {}), PanicError);
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunWhileStopsOnCondition)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.post(t, [&] { ++fired; });
    eq.runWhile([&] { return fired < 3; });
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&] {
        ticks.push_back(eq.now());
        if (ticks.size() < 5)
            eq.postIn(7, chain);
    };
    eq.post(1, chain);
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{1, 8, 15, 22, 29}));
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.post(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.processedCount(), 10u);
}

TEST(EventQueue, ZeroDelayFiresAtCurrentTick)
{
    EventQueue eq;
    eq.post(5, [] {});
    eq.run();
    Tick before = eq.now();
    bool fired = false;
    eq.postIn(0, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), before);
}

// ---- hop(): one body for an inline or evented chain step -----------

TEST(EventQueue, HopRunsInlineOnlyWhenAllowedAndBeforeNextEvent)
{
    EventQueue eq;
    std::vector<Tick> seen;
    auto body = [&](Tick t) { seen.push_back(t); };

    // Empty queue: inline, ahead of the clock.
    EXPECT_TRUE(eq.hop(10, true, body, "hop"));
    EXPECT_EQ(seen, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());

    // Declined by the caller: posted even though nothing is pending.
    EXPECT_FALSE(eq.hop(10, false, body, "hop"));
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 10}));

    // A pending event at 30: before it inline, past it posted.
    eq.post(30, [] {}, "blocker");
    EXPECT_TRUE(eq.hop(20, true, body, "hop"));
    EXPECT_FALSE(eq.hop(40, true, body, "hop"));
    EXPECT_EQ(seen, (std::vector<Tick>{10, 10, 20}));
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 10, 20, 40}));
}

TEST(EventQueue, HopPostsWhenAnEventIsDueAtTheSameTick)
{
    EventQueue eq;
    std::vector<int> log;
    eq.post(50, [&] { log.push_back(1); }, "due");
    EXPECT_FALSE(eq.hop(50, true, [&](Tick) { log.push_back(2); },
                        "hop"));
    EXPECT_TRUE(log.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, HopPostedBodySeesItsTickAsNow)
{
    EventQueue eq;
    eq.post(5, [] {}, "blocker");
    Tick arg = 0, clock = 0;
    eq.hop(
        70, true,
        [&](Tick t) {
            arg = t;
            clock = eq.now();
        },
        "hop");
    eq.run();
    EXPECT_EQ(arg, 70u);
    EXPECT_EQ(clock, 70u);
}

TEST(EventQueue, HopKeepsFifoBehindSameTickEvents)
{
    EventQueue eq;
    std::vector<int> log;
    eq.post(40, [&] { log.push_back(1); }, "first");
    eq.post(40, [&] { log.push_back(2); }, "second");
    eq.hop(40, true, [&](Tick) { log.push_back(3); }, "hop");
    eq.post(40, [&] { log.push_back(4); }, "later");
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, HopIntoThePastPanics)
{
    EventQueue eq;
    eq.post(100, [] {});
    eq.run();
    bool ran = false;
    auto body = [&](Tick) { ran = true; };
    EXPECT_THROW(eq.hop(99, true, body, "hop"), PanicError);
    EXPECT_THROW(eq.hop(99, false, body, "hop"), PanicError);
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
    // now() itself is not the past.
    EXPECT_TRUE(eq.hop(100, true, body, "hop"));
    EXPECT_TRUE(ran);
}

// ---- Ordering across short and long delays ---------------------------
// Named for the two-tier scheduler (a near-horizon ring in front of a
// far heap) these cases were written against; they stay as black-box
// ordering tests for delays from nanoseconds to milliseconds.

TEST(EventQueue, FarEventsBeyondHorizonStillFireInOrder)
{
    EventQueue eq;
    std::vector<int> log;
    // Millisecond timers posted before a nanosecond one.
    record(eq, log, 3, milliseconds(2.0));
    record(eq, log, 2, milliseconds(1.0));
    record(eq, log, 1, nanoseconds(5.0));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), milliseconds(2.0));
}

TEST(EventQueue, SameTickFifoAcrossRingHeapBoundary)
{
    // One event posted a millisecond in advance and a second one for
    // the same tick posted 100 ns before it: posting (seq) order must
    // still decide the tie.
    EventQueue eq;
    std::vector<int> log;
    const Tick w = milliseconds(1.0);
    record(eq, log, 1, w);
    eq.post(w - nanoseconds(100.0), [&] { record(eq, log, 2, w); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunLimitStopsAcrossBothTiers)
{
    EventQueue eq;
    int fired = 0;
    eq.post(nanoseconds(1.0), [&] { ++fired; });
    eq.post(milliseconds(5.0), [&] { ++fired; });
    eq.run(microseconds(1.0));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), microseconds(1.0));
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), milliseconds(5.0));
}

TEST(EventQueue, DenseSameBucketBurstKeepsFifo)
{
    // Many events at one tick fire in posting order.
    EventQueue eq;
    std::vector<int> log;
    for (int i = 0; i < 256; ++i)
        record(eq, log, i, 500);
    eq.run();
    ASSERT_EQ(log.size(), 256u);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(EventQueue, WrapAroundKeepsTickOrder)
{
    // A chain of 64 steps of 3 us each keeps exact tick order.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick step = microseconds(3.0);
    std::function<void()> chain = [&] {
        fired.push_back(eq.now());
        if (fired.size() < 64)
            eq.postIn(step, chain);
    };
    eq.post(1, chain);
    eq.run();
    ASSERT_EQ(fired.size(), 64u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], fired[i - 1] + step);
}

TEST(EventQueue, InterleavedNearAndFarRespectGlobalOrder)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 4, milliseconds(1.0));
    record(eq, log, 2, microseconds(2.0));
    record(eq, log, 1, nanoseconds(50.0));
    record(eq, log, 5, milliseconds(2.0));
    record(eq, log, 3, microseconds(7.0));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ---- Differential fuzz against a flat-list reference model ----------

namespace {

constexpr Tick noChain = maxTick;

using FiredLog = std::vector<std::pair<int, Tick>>;

/**
 * The reference scheduler: one vector kept sorted by (when, seq) that
 * fires its front. It numbers posts exactly as the queue does (every
 * post takes the next seq), so it predicts every firing, size() and
 * nextEventTick().
 */
struct RefQueue
{
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        int id;
        Tick chain; // a fired item posts -id this much later
    };

    std::vector<Item> items;
    std::uint64_t nextSeq = 0;
    Tick now = 0;
    FiredLog fired;

    void
    add(int id, Tick when, Tick chain = noChain)
    {
        Item it{when, nextSeq++, id, chain};
        auto pos = std::upper_bound(
            items.begin(), items.end(), it, [](const Item &a, const Item &b) {
                return a.when != b.when ? a.when < b.when : a.seq < b.seq;
            });
        items.insert(pos, it);
    }

    Tick nextTick() const { return items.empty() ? maxTick : items[0].when; }

    bool
    step()
    {
        if (items.empty())
            return false;
        Item it = items.front();
        items.erase(items.begin());
        now = it.when;
        fired.emplace_back(it.id, now);
        if (it.chain != noChain)
            add(-it.id, now + it.chain);
        return true;
    }

    /** EventQueue::run(limit): fire everything before @p limit. */
    void
    run(Tick limit)
    {
        while (!items.empty()) {
            if (items.front().when >= limit) {
                now = std::max(now, limit);
                return;
            }
            step();
        }
    }
};

/** A recorded one-shot; when it fires it may post its follow-up -id. */
void
postRecorded(EventQueue &eq, FiredLog &fired, int id, Tick when, Tick chain)
{
    eq.post(
        when,
        [&eq, &fired, id, chain] {
            fired.emplace_back(id, eq.now());
            if (chain != noChain)
                postRecorded(eq, fired, -id, eq.now() + chain, noChain);
        },
        "fuzz.post");
}

} // namespace

TEST(EventQueue, RandomMixMatchesFlatListReference)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        sim::Rng rng(seed);
        FiredLog fired;
        EventQueue eq;
        RefQueue ref;
        int nextPostId = 1000;
        // Each seed draws its own balance of posts and firings, so
        // some mixes keep a handful of events pending and others
        // hundreds.
        const std::uint64_t addWeight = 20 + rng.range(120);
        const std::uint64_t runWeight = 1 + rng.range(10);

        auto delay = [&]() -> Tick {
            switch (rng.range(4)) {
              case 0:
                return 0;
              case 1: // the tick of a pending event: a FIFO tie
                if (ref.items.empty())
                    return 0;
                return ref.items[rng.range(ref.items.size())].when -
                       ref.now;
              case 2: // near: inside and past a nanosecond-scale window
                return rng.range(2) ? 1 + rng.range(2048)
                                    : 1 + rng.range(microseconds(20.0));
              default:
                return milliseconds(1.0) + rng.range(milliseconds(16.0));
            }
        };

        std::size_t checked = 0;
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t roll = rng.range(addWeight + 20 + runWeight);
            const bool full = ref.items.size() >= 400;
            if (roll < addWeight && !full) {
                const Tick when = eq.now() + delay();
                const int id = nextPostId++;
                const Tick chain = rng.range(3) == 0 ? delay() : noChain;
                postRecorded(eq, fired, id, when, chain);
                ref.add(id, when, chain);
            } else if (roll < addWeight + 20) {
                ASSERT_EQ(eq.step(), ref.step()) << "seed " << seed;
            } else {
                const Tick limit = eq.now() + delay();
                eq.run(limit);
                ref.run(limit);
            }

            ASSERT_EQ(fired.size(), ref.fired.size())
                << "seed " << seed << " op " << op;
            for (; checked < fired.size(); ++checked)
                ASSERT_EQ(fired[checked], ref.fired[checked])
                    << "seed " << seed << " op " << op << " firing "
                    << checked;
            ASSERT_EQ(eq.size(), ref.items.size())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(eq.nextEventTick(), ref.nextTick())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(eq.now(), ref.now) << "seed " << seed << " op " << op;
        }
        eq.run();
        ref.run(maxTick);
        ASSERT_EQ(fired, ref.fired) << "seed " << seed;
        EXPECT_TRUE(eq.empty());
    }
}
