/**
 * @file
 * Memory-system fast path verification.
 *
 * The zero-event hit path (DESIGN.md section 6e) batches TLB hits and
 * present-PTE walks synchronously under a per-thread logical clock.
 * Correctness claim: with memQuantum = 1 the same code degenerates to
 * event-per-op pacing, and any quantum must produce a bit-identical
 * machine — same end state, same per-thread cycle/latency statistics.
 * These tests run the claim differentially across paging modes and
 * workloads, and pin the fast path's no-allocation property with a
 * counting global operator new.
 */

#include <gtest/gtest.h>

#include <memory>

#include "system/system.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "tests/heap_counting.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

namespace {

system::MachineConfig
smallConfig(system::PagingMode mode, unsigned mem_quantum)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.core.memQuantum = mem_quantum;
    return cfg;
}

/** Everything a thread measures; compared field-by-field. */
struct TcStats
{
    std::uint64_t appOps, memOps, faultedOps, hwHandledOps, uInstr;
    Cycles uCycles, cCycles, mCycles;
    Tick faultStall, started, finished;
    std::uint64_t memLatCount, faultedOpCount;
    double memLatMean, faultedOpMean;
};

TcStats
statsOf(cpu::ThreadContext &tc)
{
    TcStats s;
    s.appOps = tc.appOps();
    s.memOps = tc.memOps();
    s.faultedOps = tc.faultedOps();
    s.hwHandledOps = tc.hwHandledOps();
    s.uInstr = tc.userInstructions();
    s.uCycles = tc.userCycles();
    s.cCycles = tc.computeCycles();
    s.mCycles = tc.memStallCycles();
    s.faultStall = tc.faultStallTicks();
    s.started = tc.startTick();
    s.finished = tc.finishTick();
    s.memLatCount = tc.memLatencyUs().count();
    s.memLatMean = tc.memLatencyUs().mean();
    s.faultedOpCount = tc.faultedOpLatencyUs().count();
    s.faultedOpMean = tc.faultedOpLatencyUs().mean();
    return s;
}

void
expectSameStats(const TcStats &a, const TcStats &b, unsigned thread)
{
    SCOPED_TRACE("thread " + std::to_string(thread));
    EXPECT_EQ(a.appOps, b.appOps);
    EXPECT_EQ(a.memOps, b.memOps);
    EXPECT_EQ(a.faultedOps, b.faultedOps);
    EXPECT_EQ(a.hwHandledOps, b.hwHandledOps);
    EXPECT_EQ(a.uInstr, b.uInstr);
    EXPECT_EQ(a.uCycles, b.uCycles);
    EXPECT_EQ(a.cCycles, b.cCycles);
    EXPECT_EQ(a.mCycles, b.mCycles);
    EXPECT_EQ(a.faultStall, b.faultStall);
    EXPECT_EQ(a.started, b.started);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.memLatCount, b.memLatCount);
    EXPECT_DOUBLE_EQ(a.memLatMean, b.memLatMean);
    EXPECT_EQ(a.faultedOpCount, b.faultedOpCount);
    EXPECT_DOUBLE_EQ(a.faultedOpMean, b.faultedOpMean);
}

struct RunResult
{
    ht::MachineState state;
    std::vector<TcStats> stats;
};

/** Two FIO threads sharing one address space (cross-core batching). */
RunResult
runFio(system::PagingMode mode, unsigned mem_quantum)
{
    system::System sys(smallConfig(mode, mem_quantum));
    auto mf = sys.mapDataset("f", 8 * 1024);
    for (unsigned t = 0; t < 2; ++t) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1200);
        sys.addThread(*wl, t, *mf.as);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    RunResult r{ht::snapshot(sys, pagingModeName(mode)), {}};
    for (auto &tc : sys.threads())
        r.stats.push_back(statsOf(*tc));
    return r;
}

/** YCSB-A over the mmap'ed KV store (reads + updates + WAL writes). */
RunResult
runYcsb(system::PagingMode mode, unsigned mem_quantum)
{
    system::System sys(smallConfig(mode, mem_quantum));
    auto mf = sys.mapDataset("data", 16 * 1024);
    auto *wal = sys.createFile("wal", 8 * 1024);
    auto store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                      16 * 1024);
    auto *wl = sys.makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                         1000);
    sys.addThread(*wl, 0, *mf.as);
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    RunResult r{ht::snapshot(sys, pagingModeName(mode)), {}};
    for (auto &tc : sys.threads())
        r.stats.push_back(statsOf(*tc));
    return r;
}

void
expectEquivalent(const RunResult &fast, const RunResult &legacy)
{
    EXPECT_EQ(fast.state.stateHash, legacy.state.stateHash);
    ht::DiffOptions opt;
    opt.compareFaultTotals = true; // same mode, same machine: exact
    auto d = ht::diff(fast.state, legacy.state, opt);
    EXPECT_TRUE(d.equivalent) << d.report;
    ASSERT_EQ(fast.stats.size(), legacy.stats.size());
    for (std::size_t i = 0; i < fast.stats.size(); ++i)
        expectSameStats(fast.stats[i], legacy.stats[i],
                        static_cast<unsigned>(i));
}

class FastPathDifferential
    : public ::testing::TestWithParam<system::PagingMode>
{
};

} // namespace

TEST_P(FastPathDifferential, FioBatchedMatchesEventPerOp)
{
    auto fast = runFio(GetParam(), 4096);
    auto legacy = runFio(GetParam(), 1);
    expectEquivalent(fast, legacy);
}

TEST_P(FastPathDifferential, YcsbBatchedMatchesEventPerOp)
{
    auto fast = runYcsb(GetParam(), 4096);
    auto legacy = runYcsb(GetParam(), 1);
    expectEquivalent(fast, legacy);
}

TEST_P(FastPathDifferential, SmallQuantumMatchesLargeQuantum)
{
    // The cut policy (quantum boundary placement) must not matter,
    // only that cuts happen: an adversarially small quantum inserts
    // continuation events at different points than the default.
    auto q3 = runFio(GetParam(), 3);
    auto q4096 = runFio(GetParam(), 4096);
    expectEquivalent(q3, q4096);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FastPathDifferential,
    ::testing::Values(system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu),
    [](const ::testing::TestParamInfo<system::PagingMode> &info) {
        // Not pagingModeName(): "SW-only" is not a valid gtest name.
        switch (info.param) {
          case system::PagingMode::osdp: return std::string("osdp");
          case system::PagingMode::hwdp: return std::string("hwdp");
          case system::PagingMode::swsmu: return std::string("swsmu");
        }
        return std::string("unknown");
    });

// ---- Zero-allocation fast path ---------------------------------------------

namespace {

struct StubThread : os::Thread
{
    StubThread() : os::Thread("stub", 0) {}
    void run() override {}
};

struct StubSink : cpu::AccessSink
{
    cpu::AccessInfo last;
    bool called = false;
    void
    accessDone(const cpu::AccessInfo &info) override
    {
        last = info;
        called = true;
    }
};

system::MachineConfig
tinyConfig(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 128;
    return cfg;
}

} // namespace

TEST(FastPathAllocation, TlbHitAccessIsAllocationFree)
{
    if (!HWDP_HEAP_COUNTING)
        GTEST_SKIP() << "counting allocator disabled under ASan";
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    sys.preload(mf);

    StubThread t;
    StubSink sink;
    cpu::AccessInfo info;
    auto &mmu = sys.core(0).mmu();
    VAddr va = mf.vma->start;
    ASSERT_TRUE(mmu.access(t, *mf.as, va, false, 0, sink, info)); // warm

    auto before = ht::heapAllocs();
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(mmu.access(t, *mf.as, va + (i % 16) * pageSize,
                               (i & 1) != 0, 0, sink, info));
        ASSERT_GT(info.latency, 0u);
        ASSERT_FALSE(info.faulted);
    }
    EXPECT_EQ(ht::heapAllocs(), before)
        << "TLB-hit accesses must not touch the heap";
    EXPECT_FALSE(sink.called) << "hits complete inline, never via sink";
}

// ---- Translation-reach coherence on the fast path ---------------------------
// The last-VPN latch and the PWC both sit in front of the arrays the
// wide shootdown sweeps; each needs its own kill. A latched 4 KB VPN
// inside a 2 MB window must die with the window, and a split must
// drop the walker's cached upper entries so the next walk re-reads
// the live tree.

namespace {

/** osdp + THP machine with at least one 2 MB leaf faulted in. */
struct ThpMachine
{
    system::System sys;
    system::System::MappedFile mf;
    VAddr win = 0; ///< Base of one live 2 MB leaf window.

    ThpMachine() : sys(makeConfig())
    {
        mf = sys.mapDataset("f", 2048);
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 600);
        sys.addThread(*wl, 0, *mf.as);
        EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
        EXPECT_GT(sys.kernel().thpFaults(), 0u);
        mf.as->pageTable().forEachHugeLeaf(
            mf.vma->start, mf.vma->end, [&](VAddr va, os::EntryRef) {
                if (!win)
                    win = va;
            });
        EXPECT_NE(win, 0u);
    }

    static system::MachineConfig
    makeConfig()
    {
        system::MachineConfig cfg = tinyConfig(system::PagingMode::osdp);
        cfg.memFrames = 8 * 1024; // all four windows fit: no reclaim
        cfg.pageMode = PageMode::thp;
        return cfg;
    }
};

} // namespace

TEST(FastPathReach, WideShootdownKillsLatchedVpnInsideWindow)
{
    ThpMachine m;
    StubThread t;
    StubSink sink;
    cpu::AccessInfo info;
    auto &mmu = m.sys.core(0).mmu();
    VAddr va = m.win + 7 * pageSize;

    // Two accesses: the first lands the wide entry in the L1 and the
    // latch, the second must be a latch hit served by it.
    ASSERT_TRUE(mmu.access(t, *m.mf.as, va, false, 0, sink, info));
    auto latch_before = mmu.tlb().latchHits();
    auto wide_before = mmu.tlb().wideHits();
    ASSERT_TRUE(mmu.access(t, *m.mf.as, va, false, 0, sink, info));
    EXPECT_GT(mmu.tlb().latchHits(), latch_before);
    EXPECT_GT(mmu.tlb().wideHits(), wide_before);

    // Demote the window. The broadcast must kill the latched VPN too:
    // the next access misses the TLB entirely and re-walks.
    m.sys.kernel().demoteHugePage(*m.mf.as, m.win);
    auto miss_before = mmu.tlb().misses();
    ASSERT_TRUE(mmu.access(t, *m.mf.as, va, false, 0, sink, info));
    ASSERT_FALSE(info.faulted); // split left 512 present 4 KB PTEs
    EXPECT_GT(mmu.tlb().misses(), miss_before)
        << "stale latched translation served after the wide shootdown";

    auto inv = ht::checkInvariants(m.sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(FastPathReach, SplitDropsCoveringPwcEntries)
{
    ThpMachine m;
    StubThread t;
    StubSink sink;
    cpu::AccessInfo info;
    auto &mmu = m.sys.core(0).mmu();
    auto &walker = mmu.walker();

    // Clean slate, then one walk through the leaf window to populate
    // the PWC with its covering upper entries.
    mmu.tlb().flush();
    walker.pwcFlush();
    ASSERT_TRUE(mmu.access(t, *m.mf.as, m.win + 7 * pageSize, false, 0,
                           sink, info));
    ASSERT_FALSE(walker.pwcEmpty());

    // A second walk in the same window rides the PWC.
    mmu.tlb().flush();
    auto hits_before = walker.pwcHits();
    ASSERT_TRUE(mmu.access(t, *m.mf.as, m.win + 9 * pageSize, false, 0,
                           sink, info));
    EXPECT_GT(walker.pwcHits(), hits_before);

    // The split rewrites the PMD slot; the shootdown must drop every
    // PWC entry covering the window so the next walk re-reads the
    // live tree instead of trusting a stale upper entry.
    m.sys.kernel().demoteHugePage(*m.mf.as, m.win);
    EXPECT_TRUE(walker.pwcEmpty());

    mmu.tlb().flush();
    auto misses_before = walker.pwcMisses();
    ASSERT_TRUE(mmu.access(t, *m.mf.as, m.win + 7 * pageSize, false, 0,
                           sink, info));
    ASSERT_FALSE(info.faulted);
    EXPECT_GT(walker.pwcMisses(), misses_before);

    auto inv = ht::checkInvariants(m.sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(FastPathAllocation, WalkHitAccessIsAllocationFree)
{
    if (!HWDP_HEAP_COUNTING)
        GTEST_SKIP() << "counting allocator disabled under ASan";
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    sys.preload(mf);

    StubThread t;
    StubSink sink;
    cpu::AccessInfo info;
    auto &mmu = sys.core(0).mmu();
    VAddr va = mf.vma->start;
    ASSERT_TRUE(mmu.access(t, *mf.as, va, false, 0, sink, info)); // warm

    auto before = ht::heapAllocs();
    for (int i = 0; i < 200; ++i) {
        mmu.tlb().flush(); // force the walk (present PTE) path
        ASSERT_TRUE(mmu.access(t, *mf.as, va + (i % 16) * pageSize,
                               false, 0, sink, info));
        ASSERT_FALSE(info.faulted);
    }
    EXPECT_EQ(ht::heapAllocs(), before)
        << "present-PTE walks must not touch the heap";
    EXPECT_FALSE(sink.called);
}
