/**
 * @file
 * FaultPlan behaviour: every injection site fires under a fixed seed,
 * the injection schedule is a pure function of the seed (replayable),
 * different seeds produce different schedules, and a fault-injected
 * machine still satisfies every consistency invariant — checked both
 * mid-run and at completion.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
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

struct FioRun
{
    std::unique_ptr<system::System> sys;
    std::unique_ptr<ht::FaultPlan> plan;
    cpu::ThreadContext *tc = nullptr;
};

FioRun
makeFioRun(system::PagingMode mode, std::uint64_t plan_seed,
           std::uint64_t ops = 2500, double rate = 0.02)
{
    FioRun r;
    r.sys = std::make_unique<system::System>(smallConfig(mode));
    r.plan = std::make_unique<ht::FaultPlan>(
        "plan", r.sys->eventQueue(), plan_seed);
    auto mf = r.sys->mapDataset("f", 16 * 1024);
    auto *wl =
        r.sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
    r.tc = r.sys->addThread(*wl, 0, *mf.as);
    r.plan->attach(*r.sys);
    if (rate > 0.0)
        r.plan->armAllAtRate(rate);
    return r;
}

/** The sites a single-socket machine exposes. */
constexpr unsigned numLocalSites = 6;

const ht::FaultSite numaSites[] = {
    ht::FaultSite::remoteFpqDry, ht::FaultSite::shootdownDrop,
    ht::FaultSite::shootdownDelay, ht::FaultSite::remotePmshrFull};

/** Every site a pageMode=off machine can expose (huge sites excluded). */
constexpr unsigned numPageModeOffSites = 10;

const ht::FaultSite hugeSites[] = {ht::FaultSite::hugeCoalesceAbort,
                                   ht::FaultSite::hugeSplitStorm,
                                   ht::FaultSite::staleWideTlb};

/**
 * A two-socket machine with one FIO thread per socket, each working a
 * dataset on its local device — both sockets' SMUs field faults, and
 * kpted's sync broadcasts fan out across the socket boundary.
 */
FioRun
makeNumaFioRun(system::PagingMode mode, std::uint64_t plan_seed,
               std::uint64_t ops = 1500, double rate = 0.05,
               std::uint64_t mem_frames = 8 * 1024,
               std::uint64_t dataset_pages = 8 * 1024)
{
    FioRun r;
    auto cfg = smallConfig(mode);
    cfg.sockets = 2;
    cfg.memFrames = mem_frames;
    r.sys = std::make_unique<system::System>(cfg);
    r.plan = std::make_unique<ht::FaultPlan>(
        "plan", r.sys->eventQueue(), plan_seed);
    for (unsigned s = 0; s < 2; ++s) {
        auto mf = r.sys->mapDataset("f" + std::to_string(s),
                                    dataset_pages, nullptr, s);
        auto *wl =
            r.sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
        cpu::ThreadContext *tc =
            r.sys->addThread(*wl, s * cfg.coresPerSocket(), *mf.as);
        if (s == 0)
            r.tc = tc;
    }
    r.plan->attach(*r.sys);
    if (rate > 0.0)
        r.plan->armAllAtRate(rate);
    return r;
}

/**
 * A single-socket machine with translation reach enabled. THP machines
 * (osdp) allocate 2 MB units at fault time and reclaim them whole
 * under pressure; coalesce machines (hwdp, sequential FIO) promote
 * demand-paged runs in the background.
 */
FioRun
makeHugeFioRun(system::PagingMode mode, PageMode page_mode,
               bool sequential, std::uint64_t plan_seed,
               std::uint64_t ops = 2500)
{
    FioRun r;
    auto cfg = smallConfig(mode);
    cfg.pageMode = page_mode;
    r.sys = std::make_unique<system::System>(cfg);
    r.plan = std::make_unique<ht::FaultPlan>(
        "plan", r.sys->eventQueue(), plan_seed);
    auto mf = r.sys->mapDataset("f", 16 * 1024);
    auto *wl = r.sys->makeWorkload<workloads::FioWorkload>(
        mf.vma, ops, 300, sequential);
    r.tc = r.sys->addThread(*wl, 0, *mf.as);
    r.plan->attach(*r.sys);
    return r;
}

} // namespace

TEST(FaultInjection, EverySiteFiresUnderFixedSeed)
{
    FioRun r = makeFioRun(system::PagingMode::hwdp, 7);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));

    for (unsigned i = 0; i < numLocalSites; ++i) {
        auto s = static_cast<ht::FaultSite>(i);
        EXPECT_GT(r.plan->queries(s), 0u) << ht::faultSiteName(s);
        EXPECT_GT(r.plan->injections(s), 0u)
            << ht::faultSiteName(s);
    }
    // A single-socket machine never touches the NUMA sites.
    for (ht::FaultSite s : numaSites)
        EXPECT_EQ(r.plan->queries(s), 0u) << ht::faultSiteName(s);
    EXPECT_EQ(r.plan->totalInjections(), r.plan->log().size());

    // The machine absorbed every fault: all ops completed.
    EXPECT_EQ(r.sys->totalAppOps(), 2500u);
}

TEST(FaultInjection, NumaSitesFireOnTwoSocketMachine)
{
    FioRun r = makeNumaFioRun(system::PagingMode::hwdp, 7);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));

    for (unsigned i = 0; i < numPageModeOffSites; ++i) {
        auto s = static_cast<ht::FaultSite>(i);
        EXPECT_GT(r.plan->queries(s), 0u) << ht::faultSiteName(s);
        EXPECT_GT(r.plan->injections(s), 0u)
            << ht::faultSiteName(s);
    }
    // pageMode=off machines never query the translation-reach sites.
    for (ht::FaultSite s : hugeSites)
        EXPECT_EQ(r.plan->queries(s), 0u) << ht::faultSiteName(s);
    EXPECT_EQ(r.plan->totalInjections(), r.plan->log().size());
    EXPECT_EQ(r.sys->totalAppOps(), 3000u);

    // The injected drops/delays landed on socket 1's counters.
    const system::Socket &sk1 = r.sys->socketAt(1);
    EXPECT_GT(sk1.shootdownsDropped.value(), 0u);
    EXPECT_GT(sk1.shootdownsDelayed.value(), 0u);
    EXPECT_EQ(sk1.shootdownEpoch.value(),
              r.sys->socketAt(0).shootdownEpoch.value());
}

TEST(FaultInjection, NumaFaultScheduleReplaysUnderSameSeed)
{
    FioRun a = makeNumaFioRun(system::PagingMode::hwdp, 11);
    FioRun b = makeNumaFioRun(system::PagingMode::hwdp, 11);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(30.0)));

    const auto &la = a.plan->log();
    const auto &lb = b.plan->log();
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_GT(la.size(), 0u);
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].site, lb[i].site) << "entry " << i;
        EXPECT_EQ(la[i].tick, lb[i].tick) << "entry " << i;
        EXPECT_EQ(la[i].querySeq, lb[i].querySeq) << "entry " << i;
    }

    std::ostringstream da, db;
    ht::quiesce(*a.sys);
    ht::quiesce(*b.sys);
    ht::dumpMachineStats(*a.sys, da);
    ht::dumpMachineStats(*b.sys, db);
    ASSERT_FALSE(da.str().empty());
    EXPECT_EQ(da.str(), db.str());
}

TEST(FaultInjection, NumaInvariantsHoldMidRunAndAtCompletion)
{
    FioRun r = makeNumaFioRun(system::PagingMode::hwdp, 29);
    r.sys->eventQueue().runWhile(
        [&] { return r.sys->totalAppOps() < 800; }, seconds(30.0));
    auto mid = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(mid.empty()) << mid.front();

    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(*r.sys);
    auto end = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(end.empty()) << end.front();
}

TEST(FaultInjection, NumaFaultedFinalStateMatchesClean)
{
    // Pressure-free (datasets fit in DRAM) so reclaim order cannot
    // differ between the runs; every injected fault — including every
    // dropped or deferred remote shootdown — must then be invisible in
    // the final logical state.
    FioRun faulted = makeNumaFioRun(system::PagingMode::hwdp, 31, 1200,
                                    0.05, 48 * 1024, 8 * 1024);
    FioRun clean = makeNumaFioRun(system::PagingMode::hwdp, 31, 1200,
                                  0.0, 48 * 1024, 8 * 1024);
    ASSERT_TRUE(faulted.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(clean.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_GT(faulted.plan->totalInjections(), 0u);
    ht::quiesce(*faulted.sys);
    ht::quiesce(*clean.sys);

    auto a = ht::snapshot(*faulted.sys, "faulted");
    auto b = ht::snapshot(*clean.sys, "clean");
    auto d = ht::diff(a, b);
    EXPECT_TRUE(d.equivalent) << d.report;
}

TEST(FaultInjection, NumaSwSmuRoutesRemoteQueueSites)
{
    FioRun r = makeNumaFioRun(system::PagingMode::swsmu, 37, 1200);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(r.plan->queries(ht::FaultSite::fpqDry), 0u);
    EXPECT_GT(r.plan->queries(ht::FaultSite::remoteFpqDry), 0u);
    // No PMSHR exists in swsmu mode, local or remote.
    EXPECT_EQ(r.plan->queries(ht::FaultSite::pmshrFull), 0u);
    EXPECT_EQ(r.plan->queries(ht::FaultSite::remotePmshrFull), 0u);
    EXPECT_EQ(r.sys->totalAppOps(), 2400u);
}

TEST(FaultInjection, SameSeedReplaysIdenticalSchedule)
{
    FioRun a = makeFioRun(system::PagingMode::hwdp, 11);
    FioRun b = makeFioRun(system::PagingMode::hwdp, 11);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(30.0)));

    const auto &la = a.plan->log();
    const auto &lb = b.plan->log();
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_GT(la.size(), 0u);
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].site, lb[i].site) << "entry " << i;
        EXPECT_EQ(la[i].tick, lb[i].tick) << "entry " << i;
        EXPECT_EQ(la[i].querySeq, lb[i].querySeq) << "entry " << i;
    }
}

TEST(FaultInjection, SameSeedByteIdenticalStatsDump)
{
    FioRun a = makeFioRun(system::PagingMode::hwdp, 13);
    FioRun b = makeFioRun(system::PagingMode::hwdp, 13);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(*a.sys);
    ht::quiesce(*b.sys);

    std::ostringstream da, db;
    ht::dumpMachineStats(*a.sys, da);
    ht::dumpMachineStats(*b.sys, db);
    ASSERT_FALSE(da.str().empty());
    EXPECT_EQ(da.str(), db.str());
}

TEST(FaultInjection, DifferentSeedsDivergeInjectionPoints)
{
    FioRun a = makeFioRun(system::PagingMode::hwdp, 17);
    FioRun b = makeFioRun(system::PagingMode::hwdp, 18);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(30.0)));

    const auto &la = a.plan->log();
    const auto &lb = b.plan->log();
    ASSERT_GT(la.size(), 0u);
    ASSERT_GT(lb.size(), 0u);
    bool same = la.size() == lb.size();
    if (same) {
        for (std::size_t i = 0; i < la.size(); ++i) {
            if (la[i].site != lb[i].site ||
                la[i].querySeq != lb[i].querySeq) {
                same = false;
                break;
            }
        }
    }
    EXPECT_FALSE(same);
}

TEST(FaultInjection, DisarmedPlanInjectsNothingButCountsQueries)
{
    FioRun r = makeFioRun(system::PagingMode::hwdp, 19, 800, 0.0);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(r.plan->totalInjections(), 0u);
    EXPECT_GT(r.plan->queries(ht::FaultSite::ssdReadError), 0u);
    EXPECT_GT(r.plan->queries(ht::FaultSite::fpqDry), 0u);
    EXPECT_GT(r.plan->queries(ht::FaultSite::pmshrFull), 0u);
}

TEST(FaultInjection, MaxInjectionsCapsTheSite)
{
    FioRun r = makeFioRun(system::PagingMode::hwdp, 23, 2000, 0.0);
    r.plan->site(ht::FaultSite::pmshrFull).rate = 1.0;
    r.plan->site(ht::FaultSite::pmshrFull).maxInjections = 5;
    r.plan->arm(ht::FaultSite::pmshrFull);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(r.plan->injections(ht::FaultSite::pmshrFull), 5u);
    EXPECT_EQ(r.sys->totalAppOps(), 2000u);
}

TEST(FaultInjection, InvariantsHoldMidRunAndAtCompletionUnderFaults)
{
    FioRun r = makeFioRun(system::PagingMode::hwdp, 29);
    r.sys->eventQueue().runWhile(
        [&] { return r.sys->totalAppOps() < 1000; }, seconds(30.0));
    auto mid = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(mid.empty()) << mid.front();

    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(*r.sys);
    auto end = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(end.empty()) << end.front();
}

TEST(FaultInjection, ArmingHugeSitesDoesNotShiftOffModeReplay)
{
    // The huge sites are appended after every pre-existing site, and
    // an off machine never queries them — so arming them at rate 1.0
    // must leave a pageMode=off replay untouched, injection for
    // injection and byte for byte.
    FioRun a = makeNumaFioRun(system::PagingMode::hwdp, 41);
    FioRun b = makeNumaFioRun(system::PagingMode::hwdp, 41);
    for (ht::FaultSite s : hugeSites) {
        b.plan->site(s).rate = 1.0;
        b.plan->arm(s);
    }
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(30.0)));

    const auto &la = a.plan->log();
    const auto &lb = b.plan->log();
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_GT(la.size(), 0u);
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].site, lb[i].site) << "entry " << i;
        EXPECT_EQ(la[i].tick, lb[i].tick) << "entry " << i;
    }
    for (ht::FaultSite s : hugeSites)
        EXPECT_EQ(b.plan->injections(s), 0u) << ht::faultSiteName(s);

    ht::quiesce(*a.sys);
    ht::quiesce(*b.sys);
    std::ostringstream da, db;
    ht::dumpMachineStats(*a.sys, da);
    ht::dumpMachineStats(*b.sys, db);
    ASSERT_FALSE(da.str().empty());
    EXPECT_EQ(da.str(), db.str());
}

TEST(FaultInjection, HugeSplitStormForcesSplitsUnderReclaim)
{
    // Random FIO on a THP machine fills DRAM with 2 MB units, so
    // reclaim meets clean compound heads; the armed site turns every
    // whole-unit reclaim decision into a forced split.
    FioRun r = makeHugeFioRun(system::PagingMode::osdp, PageMode::thp,
                              false, 43, 3000);
    r.plan->site(ht::FaultSite::hugeSplitStorm).rate = 1.0;
    r.plan->arm(ht::FaultSite::hugeSplitStorm);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));

    EXPECT_GT(r.plan->queries(ht::FaultSite::hugeSplitStorm), 0u);
    EXPECT_GT(r.plan->injections(ht::FaultSite::hugeSplitStorm), 0u);
    EXPECT_GT(r.sys->kernel().hugeSplits(), 0u);
    EXPECT_EQ(r.sys->kernel().hugeReclaims(), 0u);
    EXPECT_EQ(r.sys->totalAppOps(), 3000u);

    ht::quiesce(*r.sys);
    auto end = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(end.empty()) << end.front();
}

TEST(FaultInjection, StaleWideTlbDefersDelayableShootdowns)
{
    // Forced splits demote in place (same frames), so their range
    // shootdowns are delayable — the armed site defers each one,
    // leaving a stale-wide-entry window the machine must absorb.
    FioRun r = makeHugeFioRun(system::PagingMode::osdp, PageMode::thp,
                              false, 47, 3000);
    r.plan->site(ht::FaultSite::hugeSplitStorm).rate = 1.0;
    r.plan->arm(ht::FaultSite::hugeSplitStorm);
    r.plan->site(ht::FaultSite::staleWideTlb).rate = 1.0;
    r.plan->arm(ht::FaultSite::staleWideTlb);
    ASSERT_TRUE(r.sys->runUntilThreadsDone(seconds(30.0)));

    EXPECT_GT(r.plan->queries(ht::FaultSite::staleWideTlb), 0u);
    EXPECT_GT(r.plan->injections(ht::FaultSite::staleWideTlb), 0u);
    EXPECT_GT(r.sys->wideShootdownsDelayed(), 0u);
    EXPECT_EQ(r.sys->totalAppOps(), 3000u);

    ht::quiesce(*r.sys);
    auto end = ht::checkInvariants(*r.sys);
    EXPECT_TRUE(end.empty()) << end.front();
}

TEST(FaultInjection, HugeCoalesceAbortSkipsEveryPromotion)
{
    // Sequential FIO on an hwdp coalesce machine lays down contiguous
    // demand-paged runs; the disarmed twin proves they genuinely
    // promote, the armed run proves the abort site vetoes each one.
    FioRun armed = makeHugeFioRun(system::PagingMode::hwdp,
                                  PageMode::coalesce, true, 53);
    armed.plan->site(ht::FaultSite::hugeCoalesceAbort).rate = 1.0;
    armed.plan->arm(ht::FaultSite::hugeCoalesceAbort);
    FioRun clean = makeHugeFioRun(system::PagingMode::hwdp,
                                  PageMode::coalesce, true, 53);
    ASSERT_TRUE(armed.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(clean.sys->runUntilThreadsDone(seconds(30.0)));

    ASSERT_NE(armed.sys->kcoalesced(), nullptr);
    EXPECT_GT(armed.plan->queries(ht::FaultSite::hugeCoalesceAbort),
              0u);
    EXPECT_GT(armed.plan->injections(ht::FaultSite::hugeCoalesceAbort),
              0u);
    EXPECT_GT(armed.sys->kcoalesced()->promotionsAborted(), 0u);
    EXPECT_EQ(armed.sys->kcoalesced()->windowsPromoted(), 0u);
    EXPECT_EQ(armed.sys->kernel().hugePromotions(), 0u);
    EXPECT_GT(clean.sys->kcoalesced()->windowsPromoted(), 0u);

    ht::quiesce(*armed.sys);
    auto end = ht::checkInvariants(*armed.sys);
    EXPECT_TRUE(end.empty()) << end.front();
}

TEST(FaultInjection, SwSmuAndOsdpModesAttachTheirSites)
{
    // swsmu: SSD sites plus the (single) free page queue.
    FioRun sw = makeFioRun(system::PagingMode::swsmu, 31, 1200);
    ASSERT_TRUE(sw.sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(sw.plan->injections(ht::FaultSite::ssdReadError),
              0u);
    EXPECT_GT(sw.plan->queries(ht::FaultSite::fpqDry), 0u);
    EXPECT_EQ(sw.plan->queries(ht::FaultSite::pmshrFull), 0u);
    EXPECT_EQ(sw.sys->totalAppOps(), 1200u);

    // osdp: only the SSD-facing sites exist.
    FioRun os = makeFioRun(system::PagingMode::osdp, 37, 1200);
    ASSERT_TRUE(os.sys->runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(os.plan->injections(ht::FaultSite::ssdReadError),
              0u);
    EXPECT_EQ(os.plan->queries(ht::FaultSite::fpqDry), 0u);
    EXPECT_EQ(os.plan->queries(ht::FaultSite::pmshrFull), 0u);
    EXPECT_EQ(os.sys->totalAppOps(), 1200u);
}
