/**
 * @file
 * Stress and failure-injection tests: adversarial event orderings,
 * heavy multi-threaded churn and boundary configurations that the
 * figure benches never hit.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;

namespace {

system::MachineConfig
cfgFor(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 8;
    cfg.nPhysical = 4;
    cfg.memFrames = 4096;
    cfg.smu.freeQueueCapacity = 256;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(2.0);
    return cfg;
}

} // namespace

TEST(Stress, EightThreadsOnTinyMemoryStayConsistent)
{
    // Heavy overcommit: 8 threads churning a dataset 8x memory on a
    // machine with aggressive kthread periods.
    system::System sys(cfgFor(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 32 * 1024);
    for (unsigned t = 0; t < 5; ++t) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma,
                                                            1500);
        sys.addThread(*wl, t, *mf.as);
    }
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));

    // Frame conservation.
    auto &pm = sys.physMem();
    EXPECT_EQ(pm.allocatedFrames() + pm.freeFrames() + pm.reservedCount(),
              pm.totalFrames());
    // Every in-use frame is attributable: SMU queue, page cache,
    // LRU-pending (hardware-handled, not yet synced), or mapped.
    for (Pfn p = 0; p < sys.kernel().numFrames(); ++p) {
        auto &pg = sys.kernel().page(p);
        if (!pm.isAllocated(p)) {
            EXPECT_FALSE(pg.inUse) << p;
        }
    }
}

TEST(Stress, MixedModeThreadsShareTheStore)
{
    // Readers and writers (YCSB-A) plus a pure reader (C) on one
    // store, exercising concurrent WAL traffic, eviction writeback
    // and PMSHR coalescing at once.
    system::System sys(cfgFor(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("kv", 16 * 1024);
    auto *wal = sys.createFile("wal", 8 * 1024);
    struct Holder : workloads::Workload
    {
        std::unique_ptr<workloads::KvStore> s;
        workloads::Op next(sim::Rng &) override
        {
            return workloads::Op::makeDone();
        }
        const char *label() const override { return "h"; }
    };
    auto *h = sys.makeWorkload<Holder>();
    h->s = std::make_unique<workloads::KvStore>(mf.vma, wal, 16 * 1024);
    sys.addThread(*sys.makeWorkload<workloads::YcsbWorkload>('A', *h->s,
                                                             1200),
                  0, *mf.as);
    sys.addThread(*sys.makeWorkload<workloads::YcsbWorkload>('C', *h->s,
                                                             1200),
                  1, *mf.as);
    sys.addThread(*sys.makeWorkload<workloads::YcsbWorkload>('F', *h->s,
                                                             1200),
                  2, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(120.0)));
    EXPECT_EQ(sys.totalAppOps(), 3600u);
}

TEST(Stress, RepeatedMapUnmapCycles)
{
    system::System sys(cfgFor(system::PagingMode::hwdp));
    sys.start();

    struct Cycle : workloads::Workload
    {
        system::System &sys;
        os::AddressSpace *as;
        int round = 0;
        int touched = 0;
        os::Vma *vma = nullptr;
        explicit Cycle(system::System &s) : sys(s)
        {
            as = sys.kernel().createAddressSpace();
        }
        workloads::Op
        next(sim::Rng &) override
        {
            if (round >= 5)
                return workloads::Op::makeDone();
            if (!vma) {
                auto *file = sys.kernel().fs().lookup("cyc" +
                                                      std::to_string(
                                                          round));
                if (!file)
                    file = sys.createFile("cyc" + std::to_string(round),
                                          64);
                vma = sys.kernel().mmapFileSync(*as, *file, true);
                touched = 0;
            }
            if (touched < 16) {
                return workloads::Op::makeMem(
                    vma->start + (touched++) * pageSize, false, true);
            }
            // Unmap via an msync-like barrier op then recycle.
            workloads::Op op;
            op.kind = workloads::Op::Kind::msync;
            op.vma = vma;
            vma = nullptr;
            ++round;
            return op;
        }
        const char *label() const override { return "cycle"; }
    };
    auto *wl = sys.makeWorkload<Cycle>(sys);
    sys.addThread(*wl, 0, *wl->as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    EXPECT_EQ(sys.totalAppOps(), 5u * 16u);
}

TEST(Stress, PmshrSaturationUnderBurst)
{
    // More concurrent faulters than PMSHR entries: the overflow
    // bounces to the OS but every access completes.
    auto cfg = cfgFor(system::PagingMode::hwdp);
    cfg.smu.pmshrEntries = 2;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 8 * 1024);
    for (unsigned t = 0; t < 5; ++t) {
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma,
                                                            400);
        sys.addThread(*wl, t, *mf.as);
    }
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    EXPECT_EQ(sys.totalAppOps(), 2000u);
    EXPECT_GT(sys.smu()->rejectedPmshrFull(), 0u);
    EXPECT_EQ(sys.kernel().smuFallbackFaults(),
              sys.smu()->rejectedPmshrFull() +
                  sys.smu()->rejectedQueueEmpty());
}

TEST(Stress, TinyFreeQueueStillMakesProgress)
{
    auto cfg = cfgFor(system::PagingMode::hwdp);
    cfg.smu.freeQueueCapacity = 1; // pathological
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 8 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 300);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    EXPECT_EQ(sys.totalAppOps(), 300u);
}

TEST(Stress, SingleCoreMachineWorks)
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::hwdp;
    cfg.nLogical = 1;
    cfg.nPhysical = 1;
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 128;
    // Every kthread shares logical core 0 with the workload.
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 8 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 300);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    EXPECT_EQ(sys.totalAppOps(), 300u);
}
