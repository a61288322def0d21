/**
 * @file
 * Differential verification: the same seeded workload must leave the
 * machine in an equivalent logical memory-management state whether
 * misses were handled by the hardware SMU, the software-emulated SMU
 * or conventional OS demand paging — clean and under an injected
 * 1%-error fault plan. A deliberately broken page-table updater must
 * be caught with a readable first-divergence report (negative test).
 */

#include <gtest/gtest.h>

#include <memory>

#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

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
    cfg.memFrames = 32 * 1024; // pressure-free: reclaim order is
                               // timing-dependent across modes
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    return cfg;
}

/** Run the FIO workload (the quickstart configuration) to the end. */
ht::MachineState
runFio(system::PagingMode mode, double fault_rate = 0.0,
       bool break_pt_updater = false)
{
    system::System sys(smallConfig(mode));
    ht::FaultPlan plan("plan", sys.eventQueue(), 97);
    auto mf = sys.mapDataset("f", 8 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1500);
    sys.addThread(*wl, 0, *mf.as);
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }
    if (break_pt_updater)
        sys.smu()->missEngine().ptUpdater().setSkipUpperMarkForTest(true);

    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);
    if (!break_pt_updater) {
        auto inv = ht::checkInvariants(sys);
        EXPECT_TRUE(inv.empty()) << inv.front();
    }
    return ht::snapshot(sys, pagingModeName(mode));
}

/** Run YCSB-A over the mmap'ed KV store (reads + updates + WAL). */
ht::MachineState
runYcsb(system::PagingMode mode, double fault_rate = 0.0)
{
    system::System sys(smallConfig(mode));
    ht::FaultPlan plan("plan", sys.eventQueue(), 101);
    auto mf = sys.mapDataset("data", 16 * 1024);
    auto *wal = sys.createFile("wal", 8 * 1024);
    auto store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                      16 * 1024);
    auto *wl = sys.makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                         1200);
    sys.addThread(*wl, 0, *mf.as);
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }

    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
    return ht::snapshot(sys, pagingModeName(mode));
}

} // namespace

TEST(Differential, FioHwSmuMatchesSwSmuClean)
{
    auto hw = runFio(system::PagingMode::hwdp);
    auto sw = runFio(system::PagingMode::swsmu);
    ht::DiffOptions opt;
    opt.compareFaultTotals = true; // single thread, no pressure
    auto d = ht::diff(hw, sw, opt);
    EXPECT_TRUE(d.equivalent) << d.report;
    EXPECT_EQ(hw.stateHash, sw.stateHash);
}

TEST(Differential, FioHwSmuMatchesOsdpClean)
{
    auto hw = runFio(system::PagingMode::hwdp);
    auto os = runFio(system::PagingMode::osdp);
    auto d = ht::diff(hw, os);
    EXPECT_TRUE(d.equivalent) << d.report;
}

TEST(Differential, FioEquivalentUnderOnePercentFaultPlan)
{
    auto hw = runFio(system::PagingMode::hwdp, 0.01);
    auto sw = runFio(system::PagingMode::swsmu, 0.01);
    auto d = ht::diff(hw, sw);
    EXPECT_TRUE(d.equivalent) << d.report;

    // And a fault-injected run ends in the same state as a clean one:
    // every injected error was retried or bounced to completion.
    auto clean = runFio(system::PagingMode::hwdp);
    auto d2 = ht::diff(hw, clean);
    EXPECT_TRUE(d2.equivalent) << d2.report;
}

TEST(Differential, YcsbKvStoreEquivalentAcrossAllThreeModes)
{
    auto hw = runYcsb(system::PagingMode::hwdp);
    auto sw = runYcsb(system::PagingMode::swsmu);
    auto os = runYcsb(system::PagingMode::osdp);

    auto d1 = ht::diff(hw, sw);
    EXPECT_TRUE(d1.equivalent) << d1.report;
    auto d2 = ht::diff(hw, os);
    EXPECT_TRUE(d2.equivalent) << d2.report;
}

TEST(Differential, YcsbEquivalentUnderFaultPlan)
{
    auto hw = runYcsb(system::PagingMode::hwdp, 0.01);
    auto sw = runYcsb(system::PagingMode::swsmu, 0.01);
    auto d = ht::diff(hw, sw);
    EXPECT_TRUE(d.equivalent) << d.report;
}

TEST(Differential, BrokenPtUpdaterIsCaughtWithReadableReport)
{
    // The seeded defect: the PT updater skips the upper-level LBA
    // marks, so kpted's guided scan never finds the hardware-handled
    // PTEs and their OS metadata stays stale.
    auto broken = runFio(system::PagingMode::hwdp, 0.0, true);
    auto good = runFio(system::PagingMode::swsmu);

    auto d = ht::diff(broken, good);
    ASSERT_FALSE(d.equivalent);
    EXPECT_GT(d.divergences, 0u);
    // The report names the first divergent page and both states.
    EXPECT_NE(d.report.find("UNSYNCED"), std::string::npos)
        << d.report;
    EXPECT_NE(d.report.find("va 0x"), std::string::npos) << d.report;
    EXPECT_NE(d.report.find("HWDP"), std::string::npos) << d.report;
}

TEST(Differential, SnapshotHashIsStableAcrossIdenticalRuns)
{
    auto a = runFio(system::PagingMode::hwdp);
    auto b = runFio(system::PagingMode::hwdp);
    EXPECT_EQ(a.stateHash, b.stateHash);
    auto d = ht::diff(a, b);
    EXPECT_TRUE(d.equivalent) << d.report;
}

TEST(Differential, FaultsServicedCountsEverySocket)
{
    // Two sockets, each with its own dataset and device, so each
    // socket's unit services misses. Without reclaim or prefetch
    // every serviced fault made exactly one page resident, in either
    // paging mode.
    for (auto mode : {system::PagingMode::hwdp, system::PagingMode::swsmu}) {
        system::MachineConfig cfg;
        cfg.mode = mode;
        cfg.sockets = 2;
        cfg.nLogical = 8;
        cfg.nPhysical = 4;
        cfg.memFrames = 32 * 1024;
        cfg.smu.freeQueueCapacity = 512;
        system::System sys(cfg);
        for (unsigned s = 0; s < 2; ++s) {
            auto mf = sys.mapDataset("f" + std::to_string(s), 2048,
                                     nullptr, s);
            for (unsigned c = 0; c < 2; ++c) {
                auto *wl =
                    sys.makeWorkload<workloads::FioWorkload>(mf.vma, 500);
                sys.addThread(*wl, s * cfg.coresPerSocket() + c, *mf.as);
            }
        }
        ASSERT_TRUE(sys.runUntilThreadsDone(seconds(10.0)));

        ht::MachineState st = ht::captureLogicalState(sys, "two-socket");
        std::uint64_t resident = 0;
        for (const auto &as : st.spaces)
            for (const auto &vma : as.vmas)
                for (const auto &pg : vma.pages)
                    resident += pg.resident;
        const char *name = pagingModeName(mode);
        EXPECT_GT(resident, 1000u) << name;
        EXPECT_EQ(st.faultsServiced, resident) << name;
        std::uint64_t remote = mode == system::PagingMode::hwdp
                                   ? sys.smuAt(1)->handled()
                                   : sys.softwareSmuAt(1)->handled();
        EXPECT_GT(remote, 0u) << name;
    }
}
