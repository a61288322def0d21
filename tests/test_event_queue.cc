/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

using namespace hwdp;
using namespace hwdp::sim;

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id)
        : Event("rec" + std::to_string(id)), log(log), id(id)
    {
    }
    void process() override { log.push_back(id); }

  private:
    std::vector<int> &log;
    int id;
};

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
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduledFlagTracksLifecycle)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_FALSE(a.scheduled());
    eq.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 10u);
    eq.run();
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(&a, 10);
    EXPECT_THROW(eq.schedule(&a, 20), PanicError);
    // Leave the event idle: destroying it while scheduled is itself a
    // (debug-checked) bug.
    eq.deschedule(&a);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.run();
    EXPECT_THROW(eq.schedule(&b, 50), PanicError);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, DescheduleIdlePanics)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_THROW(eq.deschedule(&a), PanicError);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
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

TEST(EventQueue, RescheduleAcceptsUnscheduledEvent)
{
    // Regression: reschedule is deschedule-if-scheduled + schedule,
    // so an idle event is simply scheduled.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_FALSE(a.scheduled());
    eq.reschedule(&a, 40);
    EXPECT_TRUE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    // And again after it has fired (idle once more).
    eq.reschedule(&a, 80);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 1}));
}

TEST(EventQueue, DescheduledEventCanBeDestroyedImmediately)
{
    // Regression for the skipDead() dangling-pointer hazard: a
    // descheduled far-future event may be destroyed straight away;
    // the queue must drop its stale entry without touching it.
    EventQueue eq;
    std::vector<int> log;
    auto *far = new RecordingEvent(log, 9);
    eq.schedule(far, seconds(1.0)); // far beyond the ring horizon
    RecordingEvent near_ev(log, 1);
    eq.schedule(&near_ev, 10);
    eq.deschedule(far);
    delete far; // entry for seq still sits in the far heap
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_TRUE(eq.empty());
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

// ---- Two-tier scheduler (near-horizon ring + far heap) --------------

TEST(TwoTier, FarEventsBeyondHorizonStillFireInOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent near_a(log, 1), far_b(log, 2), far_c(log, 3);
    // Beyond the ~8.4 us ring horizon -> far heap.
    eq.schedule(&far_c, milliseconds(2.0));
    eq.schedule(&far_b, milliseconds(1.0));
    eq.schedule(&near_a, nanoseconds(5.0));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), milliseconds(2.0));
}

TEST(TwoTier, SameTickFifoAcrossRingHeapBoundary)
{
    // An event scheduled long in advance lands in the far heap; a
    // second event for the same tick scheduled shortly before lands in
    // the ring. Scheduling (seq) order must still decide the tie.
    EventQueue eq;
    std::vector<int> log;
    const Tick w = milliseconds(1.0);
    RecordingEvent first(log, 1), second(log, 2);
    eq.schedule(&first, w); // far heap (horizon is ~8.4 us)
    eq.post(w - nanoseconds(100.0),
            [&] { eq.schedule(&second, w); }); // ring by then
    eq.run();
    EXPECT_TRUE(second.scheduled() == false);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(TwoTier, RunLimitStopsAcrossBothTiers)
{
    EventQueue eq;
    int fired = 0;
    eq.post(nanoseconds(1.0), [&] { ++fired; });        // ring
    eq.post(milliseconds(5.0), [&] { ++fired; });       // far heap
    eq.run(microseconds(1.0));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), microseconds(1.0));
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), milliseconds(5.0));
}

TEST(TwoTier, DenseSameBucketBurstKeepsFifo)
{
    // Many events in one bucket window exercise the per-bucket heap.
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> evs;
    for (int i = 0; i < 256; ++i) {
        evs.push_back(std::make_unique<RecordingEvent>(log, i));
        eq.schedule(evs.back().get(), 500); // same tick, same bucket
    }
    eq.run();
    ASSERT_EQ(log.size(), 256u);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(TwoTier, WrapAroundKeepsTickOrder)
{
    // March time far enough that ring buckets wrap several times.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick step = microseconds(3.0); // ~1/3 of the ring horizon
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

TEST(TwoTier, InterleavedNearAndFarRespectGlobalOrder)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> evs;
    auto add = [&](int id, Tick when) {
        evs.push_back(std::make_unique<RecordingEvent>(log, id));
        eq.schedule(evs.back().get(), when);
    };
    add(4, milliseconds(1.0));    // far
    add(2, microseconds(2.0));    // ring
    add(1, nanoseconds(50.0));    // ring
    add(5, milliseconds(2.0));    // far
    add(3, microseconds(7.0));    // ring
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4, 5}));
}
