/**
 * @file
 * Tests for the Section V extensions implemented beyond the paper's
 * base design: anonymous zero-fill acceleration, the long-latency
 * stall timeout, and the SMU's sequential next-page prefetch.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"

using namespace hwdp;

namespace {

system::MachineConfig
tinyConfig(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 4096;
    cfg.smu.freeQueueCapacity = 256;
    return cfg;
}

struct TouchPages : workloads::Workload
{
    os::Vma *vma;
    std::uint64_t n;
    std::uint64_t i = 0;
    bool write;
    TouchPages(os::Vma *v, std::uint64_t n, bool w = true)
        : vma(v), n(n), write(w)
    {
    }
    workloads::Op
    next(sim::Rng &) override
    {
        if (i >= n)
            return workloads::Op::makeDone();
        return workloads::Op::makeMem(vma->start + (i++) * pageSize,
                                      write, true);
    }
    const char *label() const override { return "touch"; }
};

} // namespace

TEST(AnonZeroFill, FastAnonMmapCarriesZeroFillLba)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapAnon(64);
    for (int i = 0; i < 64; ++i) {
        os::pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        ASSERT_TRUE(os::pte::isLbaAugmented(e));
        EXPECT_EQ(os::pte::lbaTargetOf(e)->lba, os::pte::zeroFillLba);
    }
    EXPECT_EQ(mf.vma->file, nullptr);
}

TEST(AnonZeroFill, SmuHandlesFirstTouchWithoutIo)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 32);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));

    EXPECT_EQ(sys.smu()->zeroFills(), 32u);
    EXPECT_EQ(sys.ssd().readsCompleted(), 0u); // I/O bypassed
    EXPECT_EQ(sys.kernel().majorFaults(), 0u);
    EXPECT_EQ(sys.kernel().minorFaults(), 0u);
}

TEST(AnonZeroFill, ZeroFillIsFarFasterThanDeviceRead)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 32);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));
    // Sub-microsecond handling instead of ~11 us of device time.
    EXPECT_LT(sys.smu()->missLatencyUs().mean(), 1.0);
    EXPECT_EQ(tc->hwHandledOps(), 32u);
}

TEST(AnonZeroFill, OsdpAnonFaultTakesMinorPath)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 16);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));
    EXPECT_EQ(sys.kernel().minorFaults(), 16u);
    EXPECT_EQ(sys.ssd().readsCompleted(), 0u);
}

TEST(AnonZeroFill, KptedSyncsAnonymousPages)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.kptedPeriod = milliseconds(1.0);
    system::System sys(cfg);
    auto mf = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 16);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));
    sys.runFor(milliseconds(3.0));

    for (int i = 0; i < 16; ++i) {
        os::pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        ASSERT_TRUE(os::pte::isPresent(e));
        EXPECT_FALSE(os::pte::needsMetadataSync(e)) << i;
        // Anonymous pages join the LRU but not the page cache.
        auto &pg = sys.kernel().page(os::pte::pfnOf(e));
        EXPECT_TRUE(sys.kernel().reclaimer().lru().contains(pg.pfn));
        EXPECT_FALSE(pg.inPageCache);
    }
}

TEST(AnonZeroFill, AnonymousPagesAreNotEvicted)
{
    // Fill memory with file pages under pressure: the anon pages must
    // survive (no swap in the model).
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.kptedPeriod = milliseconds(1.0);
    system::System sys(cfg);
    auto anon = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<TouchPages>(anon.vma, 64);
    sys.addThread(*wl, 0, *anon.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));

    auto filef = sys.mapDataset("f", 16 * 1024, anon.as);
    auto *wl2 = sys.makeWorkload<workloads::FioWorkload>(filef.vma,
                                                         4000);
    sys.addThread(*wl2, 1, *anon.as);
    sys.eventQueue().runWhile(
        [&] { return sys.totalAppOps() < 64 + 4000; }, seconds(20.0));

    for (int i = 0; i < 64; ++i) {
        EXPECT_TRUE(os::pte::isPresent(anon.as->pageTable().readPte(
            anon.vma->start + i * pageSize)))
            << "anon page " << i << " was evicted";
    }
}

TEST(StallTimeout, LongDeviceLatencyTriggersContextSwitch)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.ssdProfile = "hdd";                 // ~10 ms reads
    cfg.hwStallTimeout = microseconds(50.0); // far below the device
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 1024);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 4, false);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));

    EXPECT_EQ(sys.core(0).mmu().stallTimeouts(), 4u);
    EXPECT_EQ(sys.totalAppOps(), 4u); // all accesses still complete
    EXPECT_EQ(sys.smu()->handled(), 4u);
}

TEST(StallTimeout, FastDeviceNeverTimesOut)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.hwStallTimeout = milliseconds(1.0); // far above Z-SSD time
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 1024);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 8, false);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));
    EXPECT_EQ(sys.core(0).mmu().stallTimeouts(), 0u);
}

TEST(StallTimeout, FreesTheCoreForOtherThreads)
{
    // With the timeout, a second thread on the same logical core gets
    // CPU time during the multi-millisecond stalls.
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.ssdProfile = "hdd";
    cfg.hwStallTimeout = microseconds(50.0);
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 1024);
    auto *io = sys.makeWorkload<TouchPages>(mf.vma, 3, false);
    sys.addThread(*io, 0, *mf.as);

    struct Spin : workloads::Workload
    {
        std::uint64_t n = 0;
        workloads::Op
        next(sim::Rng &) override
        {
            if (n++ >= 50)
                return workloads::Op::makeDone();
            workloads::ComputeSpec spec;
            spec.instructions = 2000;
            return workloads::Op::makeCompute(spec, true);
        }
        const char *label() const override { return "spin"; }
    };
    auto *spin = sys.makeWorkload<Spin>();
    auto *spin_as = sys.kernel().createAddressSpace();
    sys.addThread(*spin, 0, *spin_as); // same core as the I/O thread

    // The spinner (microseconds of work) must finish long before the
    // I/O thread (~30 ms of HDD reads): it could only do so if the
    // stalls release the core.
    sys.start();
    sys.eventQueue().runWhile(
        [&] { return sys.threads()[1]->done() == false; }, seconds(5.0));
    EXPECT_TRUE(sys.threads()[1]->done());
    EXPECT_FALSE(sys.threads()[0]->done());
    sys.runUntilThreadsDone(seconds(5.0));
}

TEST(SeqPrefetch, SequentialReadsHitPrefetchedPages)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.smu.sequentialPrefetch = true;
    cfg.smu.freeQueueCapacity = 1024;
    cfg.kpooldPeriod = microseconds(500.0); // keep the queue topped up
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 2048);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(
        mf.vma, 256, 300, /*sequential=*/true);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));

    EXPECT_GT(sys.smu()->prefetches(), 100u);
    // Roughly every other access finds its page already installed by
    // the prefetch: far fewer faulting ops than the 256 issued...
    EXPECT_LT(tc->faultedOps(), 170u);
    // ...and the mean per-access latency drops well below one device
    // time (hits cost a TLB miss + walk only).
    EXPECT_LT(tc->memLatencyUs().mean(), 9.0);
}

TEST(SeqPrefetch, DisabledByDefault)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 2048);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(
        mf.vma, 64, 300, true);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    EXPECT_EQ(sys.smu()->prefetches(), 0u);
}

TEST(SeqPrefetch, DoesNotRunAwayThroughTheMapping)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.smu.sequentialPrefetch = true;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 2048);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(
        mf.vma, 16, 300, true);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    // At most one prefetch per demand miss: bounded run-ahead.
    EXPECT_LE(sys.smu()->prefetches(), 16u);
}
