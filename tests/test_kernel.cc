/**
 * @file
 * Tests for the kernel model: fast mmap population, page installs,
 * hardware-handled metadata sync, WAL writes, fork-revert and the
 * remap listener.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

system::MachineConfig
tinyConfig(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 4096;
    cfg.smu.freeQueueCapacity = 128;
    return cfg;
}

/**
 * Make @p pfn resident at @p va the way the SMU does: only the
 * page-table updater's writes (PTE with the LBA bit kept, upper-level
 * LBA bits), no OS metadata.
 */
void
installLikeTheSmu(system::System &sys, os::AddressSpace &as, VAddr va,
                  Pfn pfn)
{
    cpu::PageMissRequest req;
    req.refs = as.pageTable().walkRefs(va, false);
    sys.smu()->missEngine().ptUpdater().update(req, pfn);
}

} // namespace

TEST(Kernel, FastMmapPopulatesLbaPtes)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 64);
    for (std::uint64_t i = 0; i < 64; ++i) {
        pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        ASSERT_TRUE(pte::isLbaAugmented(e)) << "page " << i;
        auto target = pte::lbaTargetOf(e);
        EXPECT_EQ(target->lba, mf.file->lbaOf(i));
        EXPECT_EQ(target->sid, 0u);
    }
    EXPECT_TRUE(mf.file->lbaAugmentedMapping());
}

TEST(Kernel, PlainMmapLeavesPtesEmpty)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(mf.as->pageTable().readPte(mf.vma->start + i *
                                             pageSize),
                  0u);
}

TEST(Kernel, FastMmapLinksCachedPages)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto &k = sys.kernel();
    // Pre-populate the page cache with one page of the file, then map.
    auto *file = sys.createFile("f", 64);
    Pfn pfn = sys.physMem().alloc();
    Page &pg = k.page(pfn);
    pg.inUse = true;
    pg.file = file;
    pg.index = 5;
    pg.inPageCache = true;
    k.pageCache().insert(*file, 5, pfn);

    auto *as = k.createAddressSpace();
    Vma *vma = k.mmapFileSync(*as, *file, true);
    pte::Entry e = as->pageTable().readPte(vma->start + 5 * pageSize);
    EXPECT_TRUE(pte::isPresent(e));
    EXPECT_EQ(pte::pfnOf(e), pfn);
    EXPECT_EQ(pg.as, as);
}

TEST(Kernel, InstallPageSyncedWiresAllMetadata)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);
    Pfn pfn = sys.physMem().alloc();
    VAddr va = mf.vma->start + 3 * pageSize;
    k.installPage(*mf.as, *mf.vma, va, pfn, true);

    Page &pg = k.page(pfn);
    EXPECT_TRUE(pg.inUse);
    EXPECT_TRUE(pg.inPageCache);
    EXPECT_TRUE(k.reclaimer().lru().contains(pfn));
    EXPECT_EQ(pg.as, mf.as);
    EXPECT_EQ(k.pageCache().lookup(*mf.file, 3), pfn);
    pte::Entry e = mf.as->pageTable().readPte(va);
    EXPECT_TRUE(pte::isPresent(e));
    EXPECT_FALSE(pte::hasLbaBit(e));
}

TEST(Kernel, InstallHardwareHandledDefersMetadata)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);
    Pfn pfn = sys.physMem().alloc();
    VAddr va = mf.vma->start + 3 * pageSize;
    installLikeTheSmu(sys, *mf.as, va, pfn);

    // PTE present with LBA bit kept; upper levels marked; *no* OS
    // metadata yet (Table I row 3).
    pte::Entry e = mf.as->pageTable().readPte(va);
    EXPECT_TRUE(pte::needsMetadataSync(e));
    auto refs = mf.as->pageTable().walkRefs(va, false);
    EXPECT_TRUE(pte::hasLbaBit(refs.pmd.value()));
    EXPECT_TRUE(pte::hasLbaBit(refs.pud.value()));
    Page &pg = k.page(pfn);
    EXPECT_FALSE(pg.inPageCache);
    EXPECT_FALSE(k.reclaimer().lru().contains(pfn));
    EXPECT_EQ(pg.as, nullptr);
    EXPECT_EQ(k.pageCache().lookup(*mf.file, 3), PageCache::noFrame);

    // Now synchronise it the way kpted does.
    k.syncHardwareHandledPte(*mf.as, va, refs.pte);
    EXPECT_FALSE(pte::needsMetadataSync(refs.pte.value()));
    EXPECT_TRUE(pg.inPageCache);
    EXPECT_TRUE(k.reclaimer().lru().contains(pfn));
    EXPECT_EQ(pg.as, mf.as);
    EXPECT_EQ(k.pageCache().lookup(*mf.file, 3), pfn);
}

TEST(Kernel, SyncOfNormalPtePanics)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);
    Pfn pfn = sys.physMem().alloc();
    VAddr va = mf.vma->start;
    k.installPage(*mf.as, *mf.vma, va, pfn, true);
    auto refs = mf.as->pageTable().walkRefs(va, false);
    EXPECT_THROW(k.syncHardwareHandledPte(*mf.as, va, refs.pte),
                 PanicError);
}

TEST(Kernel, FreePageReturnsFrameAndClearsMetadata)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);
    Pfn pfn = sys.physMem().alloc();
    k.installPage(*mf.as, *mf.vma, mf.vma->start, pfn, true);
    auto free_before = sys.physMem().freeFrames();

    // Unmap first (freePage expects an unmapped page).
    k.rmap().unmapForEviction(k.page(pfn));
    k.freePage(k.page(pfn));
    EXPECT_EQ(sys.physMem().freeFrames(), free_before + 1);
    EXPECT_FALSE(k.page(pfn).inUse);
    EXPECT_EQ(k.pageCache().lookup(*mf.file, 0), PageCache::noFrame);
}

TEST(Kernel, DoubleFreePagePanics)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &k = sys.kernel();
    Pfn pfn = sys.physMem().alloc();
    k.page(pfn).inUse = true;
    k.freePage(k.page(pfn));
    EXPECT_THROW(k.freePage(k.page(pfn)), PanicError);
}

TEST(Kernel, RemapListenerPatchesLbaPtes)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);
    VAddr va = mf.vma->start + 9 * pageSize;
    ASSERT_TRUE(pte::isLbaAugmented(mf.as->pageTable().readPte(va)));

    // A CoW/log-structured update relocates block 9.
    k.fs().remapPage(*mf.file, 9);
    pte::Entry e = mf.as->pageTable().readPte(va);
    EXPECT_TRUE(pte::isLbaAugmented(e));
    EXPECT_EQ(pte::lbaTargetOf(e)->lba, mf.file->lbaOf(9));
}

TEST(Kernel, ForkRevertsLbaPtes)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 64);

    // One page resident via the hardware path (unsynced).
    Pfn pfn = sys.physMem().alloc();
    installLikeTheSmu(sys, *mf.as, mf.vma->start, pfn);

    k.forkRevert(*mf.as);

    // LBA-augmented PTEs became plain non-present (OS-handled)...
    for (std::uint64_t i = 1; i < 64; ++i) {
        pte::Entry e =
            mf.as->pageTable().readPte(mf.vma->start + i * pageSize);
        EXPECT_TRUE(pte::isOsHandledMiss(e)) << "page " << i;
    }
    // ...and the resident hardware-handled page was synchronised.
    pte::Entry e0 = mf.as->pageTable().readPte(mf.vma->start);
    EXPECT_TRUE(pte::isPresent(e0));
    EXPECT_FALSE(pte::hasLbaBit(e0));
    EXPECT_TRUE(k.page(pfn).inPageCache);
    EXPECT_FALSE(mf.vma->fastMmap);
}

TEST(Kernel, UnknownDevicePanics)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    EXPECT_THROW(sys.kernel().deviceIndexOf(BlockDeviceId{5, 5}),
                 PanicError);
}

TEST(Kernel, WriteFileCutsWritebackIos)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &k = sys.kernel();
    auto *wal = sys.createFile("wal", 256);

    struct Idle : workloads::Workload
    {
        workloads::Op next(sim::Rng &) override
        {
            return workloads::Op::makeDone();
        }
        const char *label() const override { return "idle"; }
    };
    auto *w = sys.makeWorkload<Idle>();
    auto *as = k.createAddressSpace();
    auto *tc = sys.addThread(*w, 0, *as);

    sys.start();
    int writes_done = 0;
    // Two 2 KB writes fill one 4 KB chunk -> exactly one write I/O.
    k.writeFile(*tc, *wal, 0, 2048, [&] { ++writes_done; });
    k.writeFile(*tc, *wal, 1, 2048, [&] { ++writes_done; });
    sys.eventQueue().run(seconds(1.0));
    EXPECT_EQ(writes_done, 2);
    EXPECT_EQ(sys.ssd().writesCompleted(), 1u);
}
