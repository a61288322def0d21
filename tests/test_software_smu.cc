/**
 * @file
 * Tests for the software-emulated SMU (the real-machine prototype).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "workloads/fio.hh"

using namespace hwdp;

namespace {

system::MachineConfig
tinyConfig()
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::swsmu;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 128;
    return cfg;
}

struct OneRead : workloads::Workload
{
    os::Vma *vma;
    VAddr addr;
    bool issued = false;
    OneRead(os::Vma *v, VAddr a) : vma(v), addr(a) {}
    workloads::Op
    next(sim::Rng &) override
    {
        if (issued)
            return workloads::Op::makeDone();
        issued = true;
        return workloads::Op::makeMem(addr, false, true);
    }
    const char *label() const override { return "oneread"; }
};

/** A thread with no work: a context for syscalls the test issues. */
struct Idle : workloads::Workload
{
    workloads::Op
    next(sim::Rng &) override
    {
        return workloads::Op::makeDone();
    }
    const char *label() const override { return "idle"; }
};

/**
 * Two sockets, two FIO threads on each, all over one dataset: the
 * machine where coalesced faulters race their misses' completion.
 */
system::MachineConfig
coalescingConfig()
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::swsmu;
    cfg.sockets = 2;
    cfg.nLogical = 8;
    cfg.nPhysical = 4;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.seed = 42;
    return cfg;
}

void
addCoalescingThreads(system::System &sys)
{
    auto mf = sys.mapDataset("f", 2048);
    for (unsigned core : {0u, 1u, 4u, 5u}) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000);
        sys.addThread(*wl, core, *mf.as);
    }
}

} // namespace

TEST(SoftwareSmu, HandlesLbaFaultWithoutBlockLayer)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    EXPECT_EQ(sys.softwareSmu()->handled(), 1u);
    // The fault trapped (it is a software scheme)...
    EXPECT_EQ(sys.core(0).mmu().osFaults(), 1u);
    // ...but never went through the kernel block layer.
    EXPECT_EQ(sys.kernel().blockLayer().readsSubmitted(), 0u);
    EXPECT_EQ(sys.kernel().majorFaults(), 0u);
    (void)tc;
}

TEST(SoftwareSmu, InstallsHardwareStylePte)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    EXPECT_TRUE(os::pte::needsMetadataSync(e));
    // OS metadata deferred to kpted, exactly like the hardware.
    Pfn pfn = os::pte::pfnOf(e);
    EXPECT_FALSE(sys.kernel().page(pfn).inPageCache);
}

TEST(SoftwareSmu, MissLatencyBetweenHardwareAndOsdp)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    double us = sys.softwareSmu()->missLatencyUs().mean();
    // Device 10.9 us + ~1-2 us of software; far below OSDP's ~19.5.
    EXPECT_GT(us, 11.0);
    EXPECT_LT(us, 15.0);
    (void)tc;
}

TEST(SoftwareSmu, ConcurrentFaultersCoalesce)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    // Two threads on different cores fault the same page.
    auto *w0 = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    auto *w1 = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start + 128);
    sys.addThread(*w0, 0, *mf.as);
    sys.addThread(*w1, 1, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    // One I/O, both threads resumed.
    EXPECT_EQ(sys.softwareSmu()->handled(), 1u);
    EXPECT_EQ(sys.ssd().readsCompleted(), 1u);
    EXPECT_EQ(sys.totalAppOps(), 2u);
}

TEST(SoftwareSmu, NonLbaFaultsTakeTheNormalPath)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    // Strip the LBA augmentation from one PTE.
    mf.as->pageTable().writePte(mf.vma->start, 0);

    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    EXPECT_EQ(sys.softwareSmu()->handled(), 0u);
    EXPECT_EQ(sys.kernel().majorFaults(), 1u);
}

TEST(SoftwareSmu, EmptyQueueFallsThroughToNormalPath)
{
    auto cfg = tinyConfig();
    cfg.kpooldEnabled = false;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    sys.addThread(*wl, 0, *mf.as);

    sys.kernel().scheduler().start();
    sys.eventQueue().runWhile([&] { return sys.totalAppOps() < 1; },
                              seconds(1.0));
    EXPECT_EQ(sys.softwareSmu()->handled(), 0u);
    EXPECT_EQ(sys.kernel().majorFaults(), 1u);
}

TEST(SoftwareSmu, CoalescedFaulterWakesWhenItsMissCompletesFirst)
{
    // A faulter that joins an outstanding miss can still be running
    // the emulation entry code when that miss completes. It must then
    // resume and re-walk, not wait on a miss that nothing will finish.
    system::System sys(coalescingConfig());
    addCoalescingThreads(sys);
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    EXPECT_EQ(sys.totalAppOps(), 4u * 2000);
    auto inv = hwdp::testing::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(SoftwareSmu, MultiSocketInterceptorPassesOnAPresentEntry)
{
    // A faulter on one socket can read its PTE after another socket's
    // emulation has installed it. The per-socket dispatch must then
    // hand the fault back to the normal path instead of decoding the
    // PFN bits as a socket id. This machine hit that race under a 1%
    // fault plan and ended with std::out_of_range.
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::swsmu;
    cfg.sockets = 2;
    cfg.nLogical = 8;
    cfg.nPhysical = 8;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.seed = 42;
    system::System sys(cfg);
    hwdp::testing::FaultPlan plan("plan", sys.eventQueue(), 3);
    auto mf = sys.mapDataset("f", 64);
    plan.attach(sys);
    plan.armAllAtRate(0.01);
    for (unsigned core = 0; core < 8; ++core) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000);
        sys.addThread(*wl, core, *mf.as);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(sys.totalAppOps(), 8u * 2000);
    // The fallback fault that lost the race must not overwrite the
    // installed entry: quiesced, no frame is left orphaned.
    sys.quiesce();
    auto inv = hwdp::testing::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(SoftwareSmu, InvariantsHoldWhileMissesAreInFlight)
{
    // The emulation's table is audited as the PMSHR is: no duplicate
    // PTE address, occupancy matching its valid entries, and no more
    // commands on its queues than entries. Check mid-run, with misses
    // in flight on both sockets' emulations.
    system::System sys(coalescingConfig());
    addCoalescingThreads(sys);
    sys.start();
    auto &eq = sys.eventQueue();
    unsigned audits = 0;
    while (sys.totalAppOps() < 4u * 2000 && eq.now() < seconds(1.0)) {
        eq.run(eq.now() + microseconds(20.0));
        unsigned in_flight = 0;
        for (unsigned s = 0; s < sys.numSockets(); ++s)
            in_flight += sys.softwareSmuAt(s)->pmshr().occupancy();
        if (in_flight == 0)
            continue;
        ++audits;
        auto inv = hwdp::testing::checkInvariants(sys);
        ASSERT_TRUE(inv.empty()) << inv.front();
    }
    EXPECT_EQ(sys.totalAppOps(), 4u * 2000);
    EXPECT_GT(audits, 100u);
}

TEST(SoftwareSmu, MunmapWaitsForAnInFlightMiss)
{
    // munmap waits on the emulation's misses as on the SMU's (the
    // Section IV-C barrier): a miss in flight still writes the PTE it
    // is tearing down. Issued 2 and 10 us into thread 0's miss.
    for (double at_us : {2.0, 10.0}) {
        system::System sys(tinyConfig());
        auto mf = sys.mapDataset("f", 64);
        VAddr va = mf.vma->start;
        auto *reader = sys.makeWorkload<OneRead>(mf.vma, va);
        sys.addThread(*reader, 0, *mf.as);
        auto *idle = sys.makeWorkload<Idle>();
        auto *tc = sys.addThread(*idle, 1, *mf.as);
        sys.start();

        bool in_flight = false, unmapped = false;
        sys.eventQueue().postIn(
            microseconds(at_us),
            [&] {
                in_flight = sys.softwareSmu()->pmshr().occupancy() > 0;
                sys.kernel().munmapVma(*tc, *mf.as, mf.vma,
                                       [&] { unmapped = true; });
            },
            "test.munmap");
        sys.eventQueue().run(sys.now() + milliseconds(1.0));

        EXPECT_TRUE(in_flight) << at_us << " us";
        EXPECT_TRUE(unmapped) << at_us << " us";
        EXPECT_EQ(sys.softwareSmu()->handled(), 1u);
        EXPECT_EQ(mf.as->pageTable().readPte(va), 0u);
        auto inv = hwdp::testing::checkInvariants(sys);
        EXPECT_TRUE(inv.empty()) << inv.front();
    }
}

TEST(SoftwareSmu, AnonymousFirstTouchZeroFillsWithoutIo)
{
    // The reserved zero-fill LBA routes the miss to a zeroed frame, as
    // in hardware: no NVMe command, no mwait.
    system::System sys(tinyConfig());
    auto mf = sys.mapAnon(64);
    auto *wl = sys.makeWorkload<OneRead>(mf.vma, mf.vma->start);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    EXPECT_EQ(sys.ssd().readsCompleted(), 0u);
    EXPECT_EQ(sys.softwareSmu()->handled(), 1u);
    EXPECT_EQ(sys.kernel().majorFaults() + sys.kernel().minorFaults(), 0u);
    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    EXPECT_TRUE(os::pte::isPresent(e));
    EXPECT_TRUE(os::pte::hasLbaBit(e)); // metadata deferred to kpted
    // Software costs only: far below a device read.
    EXPECT_LT(sys.softwareSmu()->missLatencyUs().mean(), 3.0);
}
