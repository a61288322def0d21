/**
 * @file
 * Error-path tests: the SMU bounce paths (PMSHR full, free page queue
 * dry), the retry-once-then-bounce policy on NVMe error completions in
 * both the hardware and software SMU, the block layer's retry loop,
 * and graceful OOM handling instead of a simulator panic. In every
 * case the faulting access must ultimately complete.
 */

#include <gtest/gtest.h>

#include "os/scheduler.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "workloads/fio.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

namespace {

system::MachineConfig
smallConfig(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 8 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    return cfg;
}

/** Touch @p n pages of a VMA in order (write faults). */
struct TouchAll : workloads::Workload
{
    os::Vma *vma;
    std::uint64_t i = 0;
    std::uint64_t n;
    TouchAll(os::Vma *v, std::uint64_t pages) : vma(v), n(pages) {}
    workloads::Op
    next(sim::Rng &) override
    {
        if (i >= n)
            return workloads::Op::makeDone();
        VAddr a = vma->start + (i++ << pageShift);
        return workloads::Op::makeMem(a, true, true);
    }
    const char *label() const override { return "touch"; }
};

} // namespace

TEST(BouncePaths, PmshrFullBouncesToOsAndCompletes)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    ht::FaultPlan plan("plan", sys.eventQueue(), 41);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1500);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::pmshrFull).rate = 1.0;
    plan.site(ht::FaultSite::pmshrFull).maxInjections = 8;
    plan.arm(ht::FaultSite::pmshrFull);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(sys.smu()->rejectedPmshrFull(), 8u);
    EXPECT_GE(sys.kernel().smuFallbackFaults(), 8u);
    EXPECT_EQ(sys.totalAppOps(), 1500u);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(BouncePaths, FreePageQueueDryBouncesAndRefills)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    ht::FaultPlan plan("plan", sys.eventQueue(), 43);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1500);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::fpqDry).rate = 1.0;
    plan.site(ht::FaultSite::fpqDry).maxInjections = 8;
    plan.arm(ht::FaultSite::fpqDry);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_GE(sys.smu()->rejectedQueueEmpty(), 8u);
    EXPECT_GE(sys.kernel().smuFallbackFaults(), 8u);
    // The OS bounce path triggered the overlapped refill: the queue
    // recovered and the SMU kept handling misses afterwards.
    EXPECT_FALSE(sys.smu()->freePageQueue().empty());
    EXPECT_GT(sys.smu()->handled(), 0u);
    EXPECT_EQ(sys.totalAppOps(), 1500u);
}

TEST(BouncePaths, SmuRetriesSingleNvmeErrorWithoutBounce)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    ht::FaultPlan plan("plan", sys.eventQueue(), 47);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1000);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
    plan.site(ht::FaultSite::ssdReadError).maxInjections = 1;
    plan.arm(ht::FaultSite::ssdReadError);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    // One error, one retry, retry succeeded: no bounce.
    EXPECT_EQ(sys.smu()->ioRetries(), 1u);
    EXPECT_EQ(sys.smu()->rejectedIoError(), 0u);
    EXPECT_EQ(sys.ssd().errorsCompleted(), 1u);
    EXPECT_EQ(sys.totalAppOps(), 1000u);
}

TEST(BouncePaths, SmuBouncesAfterRepeatedNvmeErrors)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    ht::FaultPlan plan("plan", sys.eventQueue(), 53);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1000);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
    plan.site(ht::FaultSite::ssdReadError).maxInjections = 2;
    plan.arm(ht::FaultSite::ssdReadError);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    // First command errored twice: one retry, then the bounce to the
    // OS path, which re-read the page successfully.
    EXPECT_EQ(sys.smu()->ioRetries(), 1u);
    EXPECT_EQ(sys.smu()->rejectedIoError(), 1u);
    EXPECT_GE(sys.kernel().smuFallbackFaults(), 1u);
    EXPECT_EQ(sys.totalAppOps(), 1000u);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(BouncePaths, SoftwareSmuRetriesThenBouncesOnNvmeErrors)
{
    {
        system::System sys(smallConfig(system::PagingMode::swsmu));
        ht::FaultPlan plan("plan", sys.eventQueue(), 59);
        auto mf = sys.mapDataset("f", 16 * 1024);
        auto *wl =
            sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1000);
        sys.addThread(*wl, 0, *mf.as);
        plan.attach(sys);
        plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
        plan.site(ht::FaultSite::ssdReadError).maxInjections = 1;
        plan.arm(ht::FaultSite::ssdReadError);

        ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
        const auto &ms = sys.softwareSmu()->missEngine().stats();
        EXPECT_EQ(ms.ioRetries.value(), 1u);
        EXPECT_EQ(ms.rejectedIoError.value(), 0u);
        EXPECT_EQ(sys.totalAppOps(), 1000u);
    }
    {
        system::System sys(smallConfig(system::PagingMode::swsmu));
        ht::FaultPlan plan("plan", sys.eventQueue(), 61);
        auto mf = sys.mapDataset("f", 16 * 1024);
        auto *wl =
            sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1000);
        sys.addThread(*wl, 0, *mf.as);
        plan.attach(sys);
        plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
        plan.site(ht::FaultSite::ssdReadError).maxInjections = 2;
        plan.arm(ht::FaultSite::ssdReadError);

        ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
        const auto &ms = sys.softwareSmu()->missEngine().stats();
        EXPECT_EQ(ms.ioRetries.value(), 1u);
        EXPECT_EQ(ms.rejectedIoError.value(), 1u);
        EXPECT_EQ(sys.totalAppOps(), 1000u);
    }
}

TEST(BouncePaths, SoftwareSmuQueueDryFallsBackToOs)
{
    system::System sys(smallConfig(system::PagingMode::swsmu));
    ht::FaultPlan plan("plan", sys.eventQueue(), 67);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1200);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::fpqDry).rate = 1.0;
    plan.site(ht::FaultSite::fpqDry).maxInjections = 8;
    plan.arm(ht::FaultSite::fpqDry);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_GE(sys.softwareSmu()->missEngine().stats().queueEmpty.value(), 8u);
    EXPECT_EQ(sys.totalAppOps(), 1200u);
}

TEST(BouncePaths, BlockLayerRetriesFailedReadsUnderOsdp)
{
    system::System sys(smallConfig(system::PagingMode::osdp));
    ht::FaultPlan plan("plan", sys.eventQueue(), 71);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1000);
    sys.addThread(*wl, 0, *mf.as);
    plan.attach(sys);
    plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
    plan.site(ht::FaultSite::ssdReadError).maxInjections = 3;
    plan.arm(ht::FaultSite::ssdReadError);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(sys.kernel().blockLayer().ioRetries(), 3u);
    EXPECT_EQ(sys.ssd().errorsCompleted(), 3u);
    EXPECT_EQ(sys.totalAppOps(), 1000u);
}

namespace {

/** Two-socket machine; one FIO thread per socket on its local device. */
std::unique_ptr<system::System>
makeNumaSystem(system::PagingMode mode, std::uint64_t ops = 1200)
{
    auto cfg = smallConfig(mode);
    cfg.sockets = 2;
    auto sys = std::make_unique<system::System>(cfg);
    for (unsigned s = 0; s < 2; ++s) {
        auto mf = sys->mapDataset("f" + std::to_string(s), 8 * 1024,
                                  nullptr, s);
        auto *wl =
            sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
        sys->addThread(*wl, s * cfg.coresPerSocket(), *mf.as);
    }
    return sys;
}

} // namespace

TEST(BouncePaths, RemoteFpqDryBouncesOnItsOwnSocket)
{
    auto sys = makeNumaSystem(system::PagingMode::hwdp);
    ht::FaultPlan plan("plan", sys->eventQueue(), 73);
    plan.attach(*sys);
    plan.site(ht::FaultSite::remoteFpqDry).rate = 1.0;
    plan.site(ht::FaultSite::remoteFpqDry).maxInjections = 8;
    plan.arm(ht::FaultSite::remoteFpqDry);

    ASSERT_TRUE(sys->runUntilThreadsDone(seconds(30.0)));
    // The injected dry spells hit socket 1's SMU and bounced to the
    // OS there. (Socket 0 may see a few genuine dry pops before
    // kpoold's first refill; only the injected ones are pinned.)
    EXPECT_EQ(plan.injections(ht::FaultSite::remoteFpqDry), 8u);
    EXPECT_EQ(plan.injections(ht::FaultSite::fpqDry), 0u);
    EXPECT_GE(sys->smuAt(1)->rejectedQueueEmpty(), 8u);
    EXPECT_GE(sys->kernel().smuFallbackFaults(), 8u);
    EXPECT_EQ(sys->totalAppOps(), 2400u);
    auto inv = ht::checkInvariants(*sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(BouncePaths, RemotePmshrFullBouncesToOs)
{
    auto sys = makeNumaSystem(system::PagingMode::hwdp);
    ht::FaultPlan plan("plan", sys->eventQueue(), 79);
    plan.attach(*sys);
    plan.site(ht::FaultSite::remotePmshrFull).rate = 1.0;
    plan.site(ht::FaultSite::remotePmshrFull).maxInjections = 8;
    plan.arm(ht::FaultSite::remotePmshrFull);

    ASSERT_TRUE(sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(sys->smuAt(1)->rejectedPmshrFull(), 8u);
    EXPECT_EQ(sys->smuAt(0)->rejectedPmshrFull(), 0u);
    EXPECT_GE(sys->kernel().smuFallbackFaults(), 8u);
    EXPECT_EQ(sys->totalAppOps(), 2400u);
    auto inv = ht::checkInvariants(*sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(BouncePaths, DroppedSyncShootdownsAreAbsorbed)
{
    // Drop EVERY remote PWC invalidation on the kpted sync path. A
    // stale PWC entry there is a performance artifact, never a
    // correctness hole: the run must complete and stay consistent.
    auto sys = makeNumaSystem(system::PagingMode::hwdp);
    ht::FaultPlan plan("plan", sys->eventQueue(), 83);
    plan.attach(*sys);
    plan.site(ht::FaultSite::shootdownDrop).rate = 1.0;
    plan.arm(ht::FaultSite::shootdownDrop);

    ASSERT_TRUE(sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(sys->socketAt(1).shootdownsDropped.value(), 0u);
    EXPECT_EQ(sys->totalAppOps(), 2400u);
    auto inv = ht::checkInvariants(*sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
    // Epochs still agree: drops change PWC contents, not the epoch.
    EXPECT_EQ(sys->socketAt(0).shootdownEpoch.value(),
              sys->socketAt(1).shootdownEpoch.value());
}

TEST(BouncePaths, DelayedSyncShootdownsEventuallyInvalidate)
{
    auto sys = makeNumaSystem(system::PagingMode::hwdp);
    ht::FaultPlan plan("plan", sys->eventQueue(), 89);
    plan.attach(*sys);
    plan.site(ht::FaultSite::shootdownDelay).rate = 1.0;
    plan.arm(ht::FaultSite::shootdownDelay);

    ASSERT_TRUE(sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(sys->socketAt(1).shootdownsDelayed.value(), 0u);
    EXPECT_EQ(sys->totalAppOps(), 2400u);
    auto inv = ht::checkInvariants(*sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(BouncePaths, AnonExhaustionOomKillsThreadInsteadOfPanicking)
{
    auto cfg = smallConfig(system::PagingMode::osdp);
    cfg.memFrames = 1024;
    system::System sys(cfg);
    // Anonymous pages are unevictable (no swap): touching more of
    // them than DRAM holds genuinely exhausts memory.
    auto mf = sys.mapAnon(2048);
    auto *wl = sys.makeWorkload<TouchAll>(mf.vma, 2048);
    auto *tc = sys.addThread(*wl, 0, *mf.as);

    bool done = false;
    EXPECT_NO_THROW(done = sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_TRUE(done);
    EXPECT_TRUE(tc->oomKilled());
    EXPECT_EQ(sys.kernel().oomKills(), 1u);
    // The thread died short of its full workload.
    EXPECT_LT(sys.totalAppOps(), 2048u);
}
