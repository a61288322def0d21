/**
 * @file
 * Tests for the page-table walker's LBA-bit classification and the
 * MMU's miss routing (exception vs SMU vs bounce).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"

using namespace hwdp;
using namespace hwdp::cpu;

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

TEST(Walker, ClassifiesPresent)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16);
    Pfn pfn = sys.physMem().alloc();
    sys.kernel().installPage(*mf.as, *mf.vma, mf.vma->start, pfn, true);

    Walker w(sys.caches(), 0);
    auto out = w.walk(*mf.as, mf.vma->start);
    EXPECT_EQ(out.kind, Walker::Classification::present);
    EXPECT_EQ(os::pte::pfnOf(out.entry), pfn);
    EXPECT_GT(out.latency, 0u);
}

TEST(Walker, SetsAccessedBit)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16);
    Pfn pfn = sys.physMem().alloc();
    sys.kernel().installPage(*mf.as, *mf.vma, mf.vma->start, pfn, true);

    Walker w(sys.caches(), 0);
    w.walk(*mf.as, mf.vma->start);
    EXPECT_TRUE(os::pte::isAccessed(
        mf.as->pageTable().readPte(mf.vma->start)));
}

TEST(Walker, ClassifiesOsFault)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16); // plain mmap: empty PTEs
    Walker w(sys.caches(), 0);
    auto out = w.walk(*mf.as, mf.vma->start);
    EXPECT_EQ(out.kind, Walker::Classification::osFault);
}

TEST(Walker, ClassifiesHwMiss)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 16); // fast mmap: LBA PTEs
    Walker w(sys.caches(), 0);
    auto out = w.walk(*mf.as, mf.vma->start);
    EXPECT_EQ(out.kind, Walker::Classification::hwMiss);
    EXPECT_TRUE(os::pte::isLbaAugmented(out.entry));
    ASSERT_TRUE(out.refs.pte.valid());
    ASSERT_TRUE(out.refs.pmd.valid());
    ASSERT_TRUE(out.refs.pud.valid());
}

TEST(Mmu, HwMissRoutesToSmuAndResumes)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 64);

    struct OneRead : workloads::Workload
    {
        os::Vma *vma;
        bool issued = false;
        explicit OneRead(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (issued)
                return workloads::Op::makeDone();
            issued = true;
            return workloads::Op::makeMem(vma->start, false, true);
        }
        const char *label() const override { return "oneread"; }
    };
    auto *wl = sys.makeWorkload<OneRead>(mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));

    EXPECT_EQ(tc->hwHandledOps(), 1u);
    EXPECT_EQ(sys.core(0).mmu().hwMisses(), 1u);
    EXPECT_EQ(sys.core(0).mmu().osFaults(), 0u);
    EXPECT_EQ(sys.kernel().majorFaults(), 0u);
}

TEST(Mmu, LbaPteWithoutSmuFallsBackToOs)
{
    // OSDP machine, but hand-craft an LBA-augmented PTE: the MMU has
    // no SMU for socket 0 and must raise a normal exception; the OS
    // can always service a file-backed fault.
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 64);
    auto bdev = mf.file->device();
    mf.as->pageTable().writePte(
        mf.vma->start, os::pte::makeLbaAugmented(
                           bdev.sid, bdev.dev, mf.file->lbaOf(0),
                           mf.vma->prot));

    struct OneRead : workloads::Workload
    {
        os::Vma *vma;
        bool issued = false;
        explicit OneRead(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (issued)
                return workloads::Op::makeDone();
            issued = true;
            return workloads::Op::makeMem(vma->start, false, true);
        }
        const char *label() const override { return "oneread"; }
    };
    auto *wl = sys.makeWorkload<OneRead>(mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    EXPECT_EQ(tc->hwHandledOps(), 0u);
    EXPECT_EQ(sys.kernel().majorFaults(), 1u);
}

TEST(Mmu, TlbCachesTranslationAfterFault)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 64);

    struct TwoReads : workloads::Workload
    {
        os::Vma *vma;
        int n = 0;
        explicit TwoReads(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (n >= 2)
                return workloads::Op::makeDone();
            ++n;
            return workloads::Op::makeMem(vma->start + 64, false, true);
        }
        const char *label() const override { return "tworeads"; }
    };
    auto *wl = sys.makeWorkload<TwoReads>(mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(1.0)));
    // Only the first access missed.
    EXPECT_EQ(tc->faultedOps(), 1u);
    EXPECT_EQ(sys.core(0).mmu().hwMisses(), 1u);
}

TEST(Mmu, AttachSmuValidatesSocketId)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    EXPECT_THROW(sys.core(0).mmu().attachSmu(8, nullptr), FatalError);
}

TEST(Mmu, SmuBounceFallsBackToOsFault)
{
    // Drain the free page queue and stop kpoold so the SMU must
    // bounce; the access still completes through the OS.
    system::MachineConfig cfg = tinyConfig(system::PagingMode::hwdp);
    cfg.kpooldEnabled = false;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 64);

    struct OneRead : workloads::Workload
    {
        os::Vma *vma;
        bool issued = false;
        explicit OneRead(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (issued)
                return workloads::Op::makeDone();
            issued = true;
            return workloads::Op::makeMem(vma->start, false, true);
        }
        const char *label() const override { return "oneread"; }
    };
    auto *wl = sys.makeWorkload<OneRead>(mf.vma);
    sys.addThread(*wl, 0, *mf.as);

    // No prime: start the scheduler manually with an empty queue.
    sys.kernel().scheduler().start();
    sys.eventQueue().runWhile(
        [&] { return sys.totalAppOps() < 1; }, seconds(1.0));

    EXPECT_EQ(sys.smu()->rejectedQueueEmpty(), 1u);
    EXPECT_EQ(sys.core(0).mmu().smuRejections(), 1u);
    EXPECT_EQ(sys.kernel().smuFallbackFaults(), 1u);
    EXPECT_EQ(sys.kernel().majorFaults(), 1u);
}

TEST(WalkerPwc, UpperLevelWalksHitAfterFirstWalk)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16);
    for (unsigned i = 0; i < 2; ++i) {
        Pfn pfn = sys.physMem().alloc();
        sys.kernel().installPage(*mf.as, *mf.vma,
                                 mf.vma->start + i * pageSize, pfn, true);
    }

    Walker w(sys.caches(), 0);
    auto o1 = w.walk(*mf.as, mf.vma->start);
    ASSERT_EQ(o1.kind, Walker::Classification::present);
    EXPECT_EQ(w.pwcMisses(), 2u); // PUD and PMD entries
    EXPECT_EQ(w.pwcHits(), 0u);

    // Adjacent page: same PUD/PMD entries, so both reads hit the PWC
    // and only the leaf PTE read is charged to the hierarchy.
    auto o2 = w.walk(*mf.as, mf.vma->start + pageSize);
    ASSERT_EQ(o2.kind, Walker::Classification::present);
    EXPECT_EQ(w.pwcHits(), 2u);
    EXPECT_EQ(w.pwcMisses(), 2u);
    EXPECT_LT(o2.latency, o1.latency);
}

TEST(WalkerPwc, ZeroEntriesDisablesCaching)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16);
    Pfn pfn = sys.physMem().alloc();
    sys.kernel().installPage(*mf.as, *mf.vma, mf.vma->start, pfn, true);

    Walker w(sys.caches(), 0, 0);
    for (int i = 0; i < 3; ++i) {
        auto out = w.walk(*mf.as, mf.vma->start);
        EXPECT_EQ(out.kind, Walker::Classification::present);
    }
    EXPECT_EQ(w.pwcHits(), 0u);
    EXPECT_TRUE(w.pwcEmpty());
}

TEST(WalkerPwc, ShootdownOnReclaimUnmapInvalidates)
{
    // Reclaim's unmap path must shoot down the PWC along with the TLB:
    // the upper-level LBA summary bits it rewrites are exactly what
    // the PWC caches the timing of.
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 16);
    Pfn pfn = sys.physMem().alloc();
    sys.kernel().installPage(*mf.as, *mf.vma, mf.vma->start, pfn, true);

    auto &w = sys.core(0).mmu().walker();
    ASSERT_EQ(w.walk(*mf.as, mf.vma->start).kind,
              Walker::Classification::present);
    ASSERT_FALSE(w.pwcEmpty());

    ASSERT_FALSE(sys.kernel().rmap().unmapForEviction(
        sys.kernel().page(pfn))); // clean page
    EXPECT_TRUE(w.pwcEmpty());
}

TEST(WalkerPwc, KptedMetadataSyncInvalidates)
{
    // kpted's metadata sync clears the upper-level LBA bits, so the
    // walker must re-read (and re-charge) those entries afterwards.
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 16);
    cpu::PageMissRequest req;
    req.refs = mf.as->pageTable().walkRefs(mf.vma->start, false);
    sys.smu()->missEngine().ptUpdater().update(req,
                                               sys.physMem().alloc());

    auto &w = sys.core(0).mmu().walker();
    ASSERT_EQ(w.walk(*mf.as, mf.vma->start).kind,
              Walker::Classification::present);
    ASSERT_FALSE(w.pwcEmpty());

    auto refs = mf.as->pageTable().walkRefs(mf.vma->start, false);
    sys.kernel().syncHardwareHandledPte(*mf.as, mf.vma->start, refs.pte);
    EXPECT_TRUE(w.pwcEmpty());
}
