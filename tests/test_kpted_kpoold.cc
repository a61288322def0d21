/**
 * @file
 * Tests for the HWDP control-plane kernel threads: kpted (metadata
 * sync) and kpoold (free page queue refill).
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
    cfg.mode = system::PagingMode::hwdp;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 256;
    cfg.kpooldBatch = 128;
    cfg.kptedPeriod = milliseconds(1.0);
    cfg.kpooldPeriod = milliseconds(1.0);
    return cfg;
}

/** Reads pages [0, n) of one VMA once each, in order. */
struct TouchPages : workloads::Workload
{
    const os::Vma *vma;
    std::uint64_t n;
    std::uint64_t touched = 0;

    TouchPages(const os::Vma *v, std::uint64_t pages) : vma(v), n(pages) {}

    workloads::Op
    next(sim::Rng &) override
    {
        if (touched == n)
            return workloads::Op::makeDone();
        return workloads::Op::makeMem(vma->start + touched++ * pageSize,
                                      false, true);
    }
    const char *label() const override { return "touch"; }
};

/** Resident pages among the first @p n of @p vma that await a sync. */
std::uint64_t
unsyncedPages(os::AddressSpace &as, const os::Vma &vma, std::uint64_t n)
{
    std::uint64_t unsynced = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        os::pte::Entry e = as.pageTable().readPte(vma.start + i * pageSize);
        EXPECT_TRUE(os::pte::isPresent(e)) << "page " << i;
        unsynced += os::pte::needsMetadataSync(e);
    }
    return unsynced;
}

} // namespace

TEST(Kpoold, PrimeFillsTheQueue)
{
    system::System sys(tinyConfig());
    EXPECT_TRUE(sys.freePageQueue()->empty());
    sys.start();
    EXPECT_EQ(sys.freePageQueue()->size(), 256u);
    // Donated frames are flagged so reclaim never touches them.
    auto r = sys.freePageQueue()->pop(0);
    EXPECT_TRUE(sys.kernel().page(r.pfn).inSmuQueue);
    EXPECT_TRUE(sys.kernel().page(r.pfn).inUse);
}

TEST(Kpoold, PeriodicRefillReplenishes)
{
    system::System sys(tinyConfig());
    sys.start();
    auto *fpq = sys.freePageQueue();
    // Drain half the queue.
    for (int i = 0; i < 128; ++i) {
        auto r = fpq->pop(0);
        sys.kernel().page(r.pfn).inSmuQueue = false;
        sys.kernel().freePage(sys.kernel().page(r.pfn));
    }
    EXPECT_EQ(fpq->size(), 128u);
    sys.runFor(milliseconds(5.0));
    EXPECT_EQ(fpq->size(), 256u);
    EXPECT_GT(sys.kpoold()->batchesRun(), 0u);
}

TEST(Kpoold, RefillOverlappedDonatesImmediately)
{
    system::System sys(tinyConfig());
    sys.start();
    auto *fpq = sys.freePageQueue();
    while (!fpq->empty()) {
        auto r = fpq->pop(0);
        sys.kernel().page(r.pfn).inSmuQueue = false;
        sys.kernel().freePage(sys.kernel().page(r.pfn));
    }
    sys.kpoold()->refillOverlapped(0);
    EXPECT_EQ(fpq->size(), 128u); // one batch, state change immediate
    EXPECT_EQ(sys.kpoold()->overlappedRefills(), 1u);
}

TEST(Kpoold, AccountsDonatedPages)
{
    system::System sys(tinyConfig());
    sys.start();
    EXPECT_GE(sys.kpoold()->pagesDonated(), 256u);
}

TEST(Kpted, PeriodicSyncClearsLbaBits)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 4096);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 300);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    // Let kpted run a couple more periods.
    sys.runFor(milliseconds(3.0));

    std::uint64_t unsynced = 0, resident = 0;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        os::pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        if (os::pte::isPresent(e)) {
            ++resident;
            unsynced += os::pte::needsMetadataSync(e) ? 1 : 0;
        }
    }
    EXPECT_GT(resident, 200u);
    EXPECT_EQ(unsynced, 0u);
    EXPECT_GE(sys.kpted()->pagesSynced(), resident);

    // Synced pages are visible to the page cache and the LRU.
    std::uint64_t cached = 0;
    for (std::uint64_t i = 0; i < 4096; ++i)
        cached += sys.kernel().pageCache().contains(*mf.file, i);
    EXPECT_EQ(cached, resident);
}

TEST(Kpted, SyncRangeServesMunmapBarrier)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 256);
    sys.start();

    // Install two pages the hardware way: the SMU's PTE update.
    for (int i = 0; i < 2; ++i) {
        cpu::PageMissRequest req;
        req.refs =
            mf.as->pageTable().walkRefs(mf.vma->start + i * pageSize, false);
        sys.smu()->missEngine().ptUpdater().update(req,
                                                   sys.physMem().alloc());
    }
    bool done = false;
    sys.kpted()->syncRange(*mf.as, mf.vma->start, mf.vma->end, 0,
                           [&] { done = true; });
    sys.eventQueue().run(sys.now() + milliseconds(10.0));
    EXPECT_TRUE(done);
    for (int i = 0; i < 2; ++i) {
        os::pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        EXPECT_FALSE(os::pte::needsMetadataSync(e));
    }
}

TEST(Kpted, SyncsAFastVmaMappedThroughTheKernel)
{
    // The fast-mmap flag is all kpted needs: a VMA mapped through the
    // kernel, not System::mapDataset, is scanned like any other.
    system::System sys(tinyConfig());
    os::Kernel &k = sys.kernel();
    os::AddressSpace *as = k.createAddressSpace();
    os::Vma *vma = k.mmapFileSync(*as, *sys.createFile("f", 64), true);
    auto *wl = sys.makeWorkload<TouchPages>(vma, 16);
    sys.addThread(*wl, 0, *as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    EXPECT_GT(sys.smu()->handled(), 0u);

    sys.runFor(milliseconds(5.0)); // five kpted periods
    EXPECT_EQ(unsyncedPages(*as, *vma, 16), 0u)
        << "of 16 touched pages, these still await kpted";
}

TEST(Kpted, SkipsAVmaRevertedByFork)
{
    // fork() reverts the area to OS paging and clears its flag; from
    // then on kpted has nothing of it to scan.
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 64);
    auto *wl = sys.makeWorkload<TouchPages>(mf.vma, 16);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    sys.kernel().forkRevert(*mf.as);
    ASSERT_FALSE(mf.vma->fastMmap);
    EXPECT_EQ(unsyncedPages(*mf.as, *mf.vma, 16), 0u);

    // The reverted VMA is the machine's only one.
    std::uint64_t before = sys.kpted()->entriesVisited();
    sys.runFor(milliseconds(5.0));
    EXPECT_EQ(sys.kpted()->entriesVisited() - before, 0u)
        << "entries of the reverted VMA visited";
}

TEST(Kpted, ChargesKptedCategory)
{
    system::System sys(tinyConfig());
    auto mf = sys.mapDataset("f", 4096);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 200);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    sys.runFor(milliseconds(3.0));
    EXPECT_GT(sys.kernel().kexec().instructions(os::KernelCostCat::kpted),
              0u);
    EXPECT_GT(sys.kernel().kexec().instructions(
                  os::KernelCostCat::kpoold),
              0u);
}

TEST(KThread, StopPreventsFurtherBatches)
{
    system::System sys(tinyConfig());
    sys.start();
    sys.runFor(milliseconds(2.0));
    auto batches = sys.kpoold()->batchesRun();
    sys.kpoold()->stop();
    sys.runFor(milliseconds(5.0));
    EXPECT_LE(sys.kpoold()->batchesRun(), batches + 1);
}
