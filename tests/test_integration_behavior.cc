/**
 * @file
 * System-level behavioural tests: the paper's qualitative claims that
 * must hold in any faithful reproduction — latency ordering across the
 * three schemes, munmap barriers, msync durability, TLB shootdown
 * correctness and write-traffic generation.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;

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

double
fioMeanLatency(system::PagingMode mode)
{
    system::System sys(smallConfig(mode));
    auto mf = sys.mapDataset("f", 64 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2500);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    return tc->faultedOpLatencyUs().mean();
}

} // namespace

TEST(Behavior, LatencyOrderingOsdpSwOnlyHwdp)
{
    // The paper's central result chain: HWDP < SW-only < OSDP.
    double osdp = fioMeanLatency(system::PagingMode::osdp);
    double swonly = fioMeanLatency(system::PagingMode::swsmu);
    double hwdp = fioMeanLatency(system::PagingMode::hwdp);
    EXPECT_LT(hwdp, swonly);
    EXPECT_LT(swonly, osdp);
    // Figure 12: roughly 37% reduction OSDP->HWDP at one thread.
    double reduction = 1.0 - hwdp / osdp;
    EXPECT_GT(reduction, 0.25);
    EXPECT_LT(reduction, 0.50);
}

TEST(Behavior, HwdpHandlesNearlyAllMissesInHardware)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 64 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 3000);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    // Paper: 99.9% of faults replaced by hardware handling.
    double hw_share = static_cast<double>(tc->hwHandledOps()) /
                      static_cast<double>(tc->faultedOps());
    EXPECT_GT(hw_share, 0.99);
}

TEST(Behavior, MunmapWaitsForOutstandingMissesAndSyncs)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 1024);

    struct ReadThenUnmap : workloads::Workload
    {
        system::System &sys;
        system::System::MappedFile mf;
        int phase = 0;
        ReadThenUnmap(system::System &s, system::System::MappedFile m)
            : sys(s), mf(m)
        {
        }
        workloads::Op
        next(sim::Rng &rng) override
        {
            if (phase < 64) {
                ++phase;
                VAddr a = mf.vma->start +
                          rng.range(mf.vma->numPages()) * pageSize;
                return workloads::Op::makeMem(a, false, true);
            }
            return workloads::Op::makeDone();
        }
        const char *label() const override { return "rtu"; }
    };
    auto *wl = sys.makeWorkload<ReadThenUnmap>(sys, mf);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(10.0)));

    // munmap with hardware-handled pages still unsynced.
    ASSERT_TRUE(mf.vma->fastMmap);
    bool done = false;
    sys.kernel().munmapVma(*tc, *mf.as, mf.vma, [&] { done = true; });
    sys.eventQueue().run(sys.now() + seconds(1.0));
    ASSERT_TRUE(done);

    // All PTE state gone; every frame accounted for (either free, in
    // the SMU queue, or page-cache resident without a mapping).
    for (Pfn p = 0; p < sys.kernel().numFrames(); ++p) {
        auto &pg = sys.kernel().page(p);
        if (pg.inUse) {
            EXPECT_EQ(pg.as, nullptr) << "pfn " << p;
        }
    }

    // The destroyed VMA has left its address space, so kpted's next
    // batch, which walks the address spaces, visits nothing.
    EXPECT_TRUE(mf.as->vmas().empty());
    std::uint64_t visited = sys.kpted()->entriesVisited();
    bool batched = false;
    sys.kpted()->batch([&] { batched = true; });
    sys.eventQueue().run(sys.now() + milliseconds(1.0));
    EXPECT_TRUE(batched);
    EXPECT_EQ(sys.kpted()->entriesVisited(), visited);
}

TEST(Behavior, MsyncWritesBackDirtyPages)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 256);

    struct DirtyWriter : workloads::Workload
    {
        os::Vma *vma;
        int n = 0;
        explicit DirtyWriter(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (n >= 16)
                return workloads::Op::makeDone();
            return workloads::Op::makeMem(vma->start + (n++) * pageSize,
                                          true, true);
        }
        const char *label() const override { return "dirty"; }
    };
    auto *wl = sys.makeWorkload<DirtyWriter>(mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(10.0)));

    auto writes_before = sys.ssd().writesCompleted();
    bool done = false;
    sys.kernel().msyncVma(*tc, mf.vma, [&] { done = true; });
    sys.eventQueue().run(sys.now() + seconds(1.0));
    ASSERT_TRUE(done);
    EXPECT_GE(sys.ssd().writesCompleted(), writes_before + 16);

    // Pages are clean afterwards.
    for (int i = 0; i < 16; ++i) {
        os::pte::Entry e = mf.as->pageTable().readPte(
            mf.vma->start + i * pageSize);
        if (os::pte::isPresent(e)) {
            EXPECT_FALSE(
                sys.kernel().page(os::pte::pfnOf(e)).dirty);
        }
    }
}

TEST(Behavior, EvictionShootsDownTlb)
{
    // After an eviction rewrites a PTE, the stale TLB translation
    // must be gone: the next touch faults again instead of silently
    // using a freed frame.
    system::System sys(smallConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 1024);

    struct TouchEvictTouch : workloads::Workload
    {
        system::System &sys;
        os::Vma *vma;
        int phase = 0;
        TouchEvictTouch(system::System &s, os::Vma *v) : sys(s), vma(v)
        {
        }
        workloads::Op
        next(sim::Rng &) override
        {
            switch (phase++) {
              case 0:
                return workloads::Op::makeMem(vma->start, false, true);
              case 1: {
                // Idle window: the test evicts page 0 in here.
                workloads::Op op;
                op.kind = workloads::Op::Kind::idle;
                op.idleTicks = milliseconds(1.0);
                return op;
              }
              case 2:
                return workloads::Op::makeMem(vma->start, false, true);
              default:
                return workloads::Op::makeDone();
            }
        }
        const char *label() const override { return "tet"; }
    };

    auto *wl = sys.makeWorkload<TouchEvictTouch>(sys, mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    (void)tc;

    // Run the first access, then evict, then let the second access go.
    sys.start();
    sys.eventQueue().runWhile([&] { return sys.totalAppOps() < 1; },
                              seconds(5.0));
    ASSERT_EQ(sys.totalAppOps(), 1u);

    // kpted must sync it before it is evictable; force that now.
    os::pte::Entry e = mf.as->pageTable().readPte(mf.vma->start);
    ASSERT_TRUE(os::pte::isPresent(e));
    Pfn pfn = os::pte::pfnOf(e);
    if (os::pte::needsMetadataSync(e)) {
        auto refs = mf.as->pageTable().walkRefs(mf.vma->start, false);
        sys.kernel().syncHardwareHandledPte(*mf.as, mf.vma->start,
                                            refs.pte);
    }
    sys.kernel().rmap().unmapForEviction(sys.kernel().page(pfn));
    sys.kernel().freePage(sys.kernel().page(pfn));

    sys.eventQueue().runWhile([&] { return sys.totalAppOps() < 2; },
                              seconds(5.0));
    EXPECT_EQ(sys.totalAppOps(), 2u);
    // The second touch re-faulted (no stale TLB entry used).
    EXPECT_EQ(sys.threads()[0]->faultedOps(), 2u);
}

TEST(Behavior, YcsbAGeneratesSsdWriteTraffic)
{
    system::System sys(smallConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *wal = sys.createFile("wal", 8 * 1024);
    struct Holder : workloads::Workload
    {
        std::unique_ptr<workloads::KvStore> s;
        workloads::Op next(sim::Rng &) override
        {
            return workloads::Op::makeDone();
        }
        const char *label() const override { return "holder"; }
    };
    auto *h = sys.makeWorkload<Holder>();
    h->s = std::make_unique<workloads::KvStore>(mf.vma, wal, 16 * 1024);
    auto *wl = sys.makeWorkload<workloads::YcsbWorkload>('A', *h->s,
                                                         1500);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    // ~50% updates, each cutting WAL + compaction writes.
    EXPECT_GT(sys.ssd().writesCompleted(), 800u);
}
