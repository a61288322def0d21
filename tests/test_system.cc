/**
 * @file
 * Tests for the system builder and machine-level wiring.
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
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 128;
    return cfg;
}

} // namespace

TEST(System, OsdpModeHasNoHwdpMachinery)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    EXPECT_EQ(sys.smu(), nullptr);
    EXPECT_EQ(sys.softwareSmu(), nullptr);
    EXPECT_EQ(sys.kpted(), nullptr);
    EXPECT_EQ(sys.kpoold(), nullptr);
    EXPECT_EQ(sys.freePageQueue(), nullptr);
}

TEST(System, HwdpModeBuildsSmuAndKthreads)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    EXPECT_NE(sys.smu(), nullptr);
    EXPECT_EQ(sys.softwareSmu(), nullptr);
    EXPECT_NE(sys.kpted(), nullptr);
    EXPECT_NE(sys.kpoold(), nullptr);
    EXPECT_EQ(sys.freePageQueue(), &sys.smu()->freePageQueue());
}

TEST(System, SwSmuModeBuildsEmulation)
{
    system::System sys(tinyConfig(system::PagingMode::swsmu));
    EXPECT_EQ(sys.smu(), nullptr);
    EXPECT_NE(sys.softwareSmu(), nullptr);
    EXPECT_NE(sys.kpted(), nullptr);
    EXPECT_NE(sys.freePageQueue(), nullptr);
}

TEST(System, MapDatasetRegistersFastVma)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 64);
    // kpted scans every VMA of every address space that carries the
    // flag: the flag is the registration.
    EXPECT_TRUE(mf.vma->fastMmap);
    ASSERT_EQ(mf.as->vmas().size(), 1u);
    EXPECT_EQ(mf.as->vmas()[0].get(), mf.vma);
}

TEST(System, MapDatasetPlainUnderOsdp)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    EXPECT_FALSE(mf.vma->fastMmap);
}

TEST(System, PreloadInstallsResidentPages)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    sys.preload(mf);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(os::pte::isPresent(mf.as->pageTable().readPte(
            mf.vma->start + i * pageSize)));
    }
    EXPECT_EQ(sys.physMem().allocatedFrames(), 64u);
}

TEST(System, StartTwicePanics)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    sys.start();
    EXPECT_THROW(sys.start(), PanicError);
}

TEST(System, RunForAdvancesTime)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    Tick t0 = sys.now();
    sys.runFor(milliseconds(2.0));
    EXPECT_GE(sys.now(), t0 + milliseconds(1.9));
}

TEST(System, StopKthreadsLetsQueueDrain)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    sys.start();
    sys.runFor(milliseconds(2.0));
    sys.stopKthreads();
    // With the periodic timers gone the queue empties.
    sys.eventQueue().run();
    EXPECT_TRUE(sys.eventQueue().empty());
}

TEST(System, ThroughputAccountsAllThreads)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 4096);
    for (unsigned t = 0; t < 2; ++t) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 100);
        sys.addThread(*wl, t, *mf.as);
    }
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    EXPECT_EQ(sys.totalAppOps(), 200u);
    EXPECT_GT(sys.throughputOpsPerSec(), 0.0);
    EXPECT_GT(sys.aggregateUserIpc(), 0.0);
}

TEST(System, TickLimitReportsFailure)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 4096);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 100000);
    sys.addThread(*wl, 0, *mf.as);
    EXPECT_FALSE(sys.runUntilThreadsDone(microseconds(100.0)));
}

TEST(System, ConfigDescribeMentionsKeyParameters)
{
    auto cfg = tinyConfig(system::PagingMode::hwdp);
    std::string desc = cfg.describe();
    EXPECT_NE(desc.find("HWDP"), std::string::npos);
    EXPECT_NE(desc.find("PMSHR"), std::string::npos);
    EXPECT_NE(desc.find("zssd"), std::string::npos);
}

TEST(System, PagingModeNames)
{
    EXPECT_STREQ(system::pagingModeName(system::PagingMode::osdp),
                 "OSDP");
    EXPECT_STREQ(system::pagingModeName(system::PagingMode::hwdp),
                 "HWDP");
    EXPECT_STREQ(system::pagingModeName(system::PagingMode::swsmu),
                 "SW-only");
}

