/**
 * @file
 * Tests for the OSDP page-fault path.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"

using namespace hwdp;

namespace {

system::MachineConfig
tinyConfig()
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::osdp;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2048;
    return cfg;
}

struct ReadList : workloads::Workload
{
    std::vector<VAddr> addrs;
    std::size_t i = 0;
    bool write = false;
    explicit ReadList(std::vector<VAddr> a, bool w = false)
        : addrs(std::move(a)), write(w)
    {
    }
    workloads::Op
    next(sim::Rng &) override
    {
        if (i >= addrs.size())
            return workloads::Op::makeDone();
        return workloads::Op::makeMem(addrs[i++], write, true);
    }
    const char *label() const override { return "readlist"; }
};

} // namespace

TEST(FaultHandler, MajorFaultInstallsPageAndCounts)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<ReadList>(
        std::vector<VAddr>{mf.vma->start});
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    EXPECT_EQ(sys.kernel().majorFaults(), 1u);
    EXPECT_EQ(sys.kernel().minorFaults(), 0u);
    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    ASSERT_TRUE(os::pte::isPresent(e));
    Pfn pfn = os::pte::pfnOf(e);
    EXPECT_TRUE(sys.kernel().page(pfn).inPageCache);
    EXPECT_TRUE(sys.kernel().reclaimer().lru().contains(pfn));
    EXPECT_EQ(sys.ssd().readsCompleted(), 1u);
}

TEST(FaultHandler, FaultLatencyMatchesCalibration)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 256);
    std::vector<VAddr> addrs;
    for (int i = 0; i < 100; ++i)
        addrs.push_back(mf.vma->start + i * pageSize);
    auto *wl = sys.makeWorkload<ReadList>(addrs);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(2.0)));

    // Device 10.9 us + ~8.4 us of kernel work (Figure 3).
    double mean = sys.kernel().faultLatencyUs().mean();
    EXPECT_GT(mean, 17.0);
    EXPECT_LT(mean, 22.0);
}

TEST(FaultHandler, SecondTouchIsMinorFaultAfterUnmap)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<ReadList>(
        std::vector<VAddr>{mf.vma->start});
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    // Clear the PTE but keep the page cached: the next fault must be
    // minor (page-cache hit) with no new device read.
    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    Pfn pfn = os::pte::pfnOf(e);
    sys.kernel().rmap().clearMapping(sys.kernel().page(pfn));
    mf.as->pageTable().writePte(mf.vma->start, 0);
    sys.core(0).mmu().tlb().invalidate(mf.vma->start);

    auto *wl2 = sys.makeWorkload<ReadList>(
        std::vector<VAddr>{mf.vma->start});
    sys.addThread(*wl2, 1, *mf.as);
    sys.eventQueue().runWhile([&] { return sys.totalAppOps() < 2; },
                              seconds(1.0));
    EXPECT_EQ(sys.kernel().minorFaults(), 1u);
    EXPECT_EQ(sys.ssd().readsCompleted(), 1u); // still just one read
}

TEST(FaultHandler, ConcurrentFaultsOnSamePageShareOneIo)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    // Four threads all fault the same page simultaneously.
    for (unsigned t = 0; t < 4; ++t) {
        auto *wl = sys.makeWorkload<ReadList>(
            std::vector<VAddr>{mf.vma->start + t * 8});
        sys.addThread(*wl, t, *mf.as);
    }
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    EXPECT_EQ(sys.ssd().readsCompleted(), 1u);
    EXPECT_EQ(sys.totalAppOps(), 4u);
    EXPECT_EQ(sys.physMem().allocatedFrames(), 1u);
}

TEST(FaultHandler, WriteFaultMarksPageDirty)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<ReadList>(
        std::vector<VAddr>{mf.vma->start}, true);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    EXPECT_TRUE(sys.kernel().page(os::pte::pfnOf(e)).dirty);
}

TEST(FaultHandler, KernelWorkIsAttributedToCategories)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    std::vector<VAddr> addrs;
    for (int i = 0; i < 10; ++i)
        addrs.push_back(mf.vma->start + i * pageSize);
    auto *wl = sys.makeWorkload<ReadList>(addrs);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    auto &ke = sys.kernel().kexec();
    EXPECT_GT(ke.instructions(os::KernelCostCat::faultPath), 0u);
    EXPECT_GT(ke.instructions(os::KernelCostCat::ioStack), 0u);
    EXPECT_GT(ke.instructions(os::KernelCostCat::contextSwitch), 0u);
    EXPECT_GT(ke.instructions(os::KernelCostCat::irq), 0u);
    EXPECT_GT(ke.instructions(os::KernelCostCat::metadata), 0u);
    EXPECT_EQ(ke.instructions(os::KernelCostCat::kpted), 0u);
}

TEST(FaultHandler, DirectReclaimKicksInWhenMemoryExhausted)
{
    auto cfg = tinyConfig();
    cfg.memFrames = 256; // tiny memory
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 1024);
    std::vector<VAddr> addrs;
    for (int i = 0; i < 600; ++i)
        addrs.push_back(mf.vma->start + i * pageSize);
    auto *wl = sys.makeWorkload<ReadList>(addrs);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_EQ(sys.kernel().majorFaults(), 600u);
    EXPECT_GT(sys.kernel().reclaimer().pagesEvicted(), 300u);
}
