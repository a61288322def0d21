/**
 * @file
 * Unit tests for the pooled one-shot events: free-list reuse, the
 * no-steady-state-allocation guarantee, destruction with pending
 * events, the large-capture heap fallback and the past-post panic.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "tests/heap_counting.hh"

using namespace hwdp;
using namespace hwdp::sim;

namespace ht = hwdp::testing;

TEST(EventPool, SequentialOneShotsReuseASingleNode)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
        eq.postIn(1, [&] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 1000);
    const auto &ps = eq.poolStats();
    EXPECT_EQ(ps.acquired, 1000u);
    EXPECT_EQ(ps.released, 1000u);
    // Only one one-shot is ever outstanding: the pool allocates one
    // node on the first post and never again — the steady-state
    // one-shot path performs no heap allocation.
    EXPECT_EQ(ps.created, 1u);
    EXPECT_EQ(ps.heapFallbacks, 0u);
}

TEST(EventPool, PoolGrowsToPeakOutstandingThenStopsGrowing)
{
    EventQueue eq;
    int fired = 0;
    for (int round = 0; round < 10; ++round) {
        for (Tick t = 1; t <= 64; ++t)
            eq.postIn(t, [&] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 640);
    const auto &ps = eq.poolStats();
    EXPECT_EQ(ps.acquired, 640u);
    // 64 simultaneously pending in round one; later rounds reuse.
    EXPECT_EQ(ps.created, 64u);
}

TEST(EventPool, CallableCapturesAreDestroyedExactlyOnce)
{
    struct Probe
    {
        int *alive;
        explicit Probe(int *a) : alive(a) { ++*alive; }
        Probe(const Probe &o) : alive(o.alive) { ++*alive; }
        Probe(Probe &&o) noexcept : alive(o.alive) { ++*alive; }
        ~Probe() { --*alive; }
    };
    int alive = 0;
    {
        EventQueue eq;
        Probe p(&alive);
        eq.post(10, [p] { (void)p.alive; });
        EXPECT_GE(alive, 2); // original + capture copy
        eq.run();
        EXPECT_EQ(alive, 1); // capture destroyed on recycle
    }
    EXPECT_EQ(alive, 0);
}

TEST(EventPool, QueueDestructionReleasesPendingCallables)
{
    // Pending one-shots at queue destruction: their captures must be
    // destroyed exactly once and nothing may leak (ASan-verified).
    auto shared = std::make_shared<int>(7);
    EXPECT_EQ(shared.use_count(), 1);
    {
        EventQueue eq;
        eq.post(100, [shared] { (void)*shared; });
        eq.post(seconds(10.0), [shared] { (void)*shared; });
        EXPECT_EQ(shared.use_count(), 3);
    }
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventPool, PostAndFireAllocateNothing)
{
    if (!HWDP_HEAP_COUNTING)
        GTEST_SKIP() << "counting allocator compiled out (sanitizer)";
    // Each round posts a 3 ns, a 12 us and a 4 ms one-shot (a cache
    // fill, an SSD completion, a kthread period) and fires them all.
    EventQueue eq;
    int fired = 0;
    auto round = [&] {
        eq.postIn(nanoseconds(3.0), [&] { ++fired; }, "near");
        eq.postIn(microseconds(12.0), [&] { ++fired; }, "ssd.complete");
        eq.postIn(milliseconds(4.0), [&] { ++fired; }, "timer");
        eq.run();
    };
    // Warm-up: the pool's nodes and the queue's storage reach their
    // peak here.
    for (int i = 0; i < 16; ++i)
        round();
    const std::uint64_t before = ht::heapAllocs();
    for (int i = 0; i < 4096; ++i)
        round();
    const std::uint64_t allocs = ht::heapAllocs() - before;
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(fired, 3 * (16 + 4096));
    EXPECT_EQ(eq.poolStats().created, 3u);
}

TEST(EventPool, LargeCapturesFallBackToHeapAndStillWork)
{
    EventQueue eq;
    std::array<char, PooledEvent::inlineCapacity + 64> big{};
    big[0] = 42;
    char seen = 0;
    eq.post(10, [big, &seen] { seen = big[0]; });
    EXPECT_EQ(eq.poolStats().heapFallbacks, 1u);
    eq.run();
    EXPECT_EQ(seen, 42);
    // A fallback callable pending at destruction must not leak either.
    eq.post(eq.now() + 5, [big, &seen] { seen = big[0]; });
    EXPECT_EQ(eq.poolStats().heapFallbacks, 2u);
}

TEST(EventPool, PostIntoThePastPanicsWithoutLeaking)
{
    EventQueue eq;
    eq.post(100, [] {});
    eq.run();
    EXPECT_THROW(eq.post(50, [] {}), PanicError);
    // The failed post is refused before it takes a node.
    EXPECT_EQ(eq.poolStats().acquired, 1u);
    EXPECT_EQ(eq.poolStats().released, 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventPool, PostedNameIsInternedNotCopied)
{
    EventQueue eq;
    eq.post(100, [] {});
    eq.run();
    try {
        eq.post(10, [] {}, "mmu.walked");
        FAIL() << "a post into the past must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("'mmu.walked'"),
                  std::string::npos)
            << e.what();
    }
}
