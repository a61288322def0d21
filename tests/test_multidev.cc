/**
 * @file
 * Tests for multi-device routing (the PTE's 3-bit device id) and the
 * per-core free page queue extension.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "workloads/fio.hh"

using namespace hwdp;

namespace {

system::MachineConfig
tinyConfig(unsigned devices)
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::hwdp;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 4096;
    cfg.nDevices = devices;
    cfg.smu.freeQueueCapacity = 512;
    return cfg;
}

struct TouchPages : workloads::Workload
{
    os::Vma *vma;
    std::uint64_t n;
    std::uint64_t i = 0;
    TouchPages(os::Vma *v, std::uint64_t n) : vma(v), n(n) {}
    workloads::Op
    next(sim::Rng &) override
    {
        if (i >= n)
            return workloads::Op::makeDone();
        return workloads::Op::makeMem(vma->start + (i++) * pageSize,
                                      false, true);
    }
    const char *label() const override { return "touch"; }
};

} // namespace

TEST(MultiDevice, PtesCarryTheDeviceId)
{
    system::System sys(tinyConfig(2));
    auto a = sys.mapDataset("a", 64, nullptr, 0);
    auto b = sys.mapDataset("b", 64, a.as, 1);
    auto ta = os::pte::lbaTargetOf(a.as->pageTable().readPte(a.vma->start));
    auto tb = os::pte::lbaTargetOf(b.as->pageTable().readPte(b.vma->start));
    ASSERT_TRUE(ta && tb);
    EXPECT_EQ(ta->dev, 0u);
    EXPECT_EQ(tb->dev, 1u);
}

TEST(MultiDevice, SmuRoutesMissesToTheRightDevice)
{
    system::System sys(tinyConfig(2));
    auto a = sys.mapDataset("a", 64, nullptr, 0);
    auto b = sys.mapDataset("b", 64, a.as, 1);

    auto *wa = sys.makeWorkload<TouchPages>(a.vma, 16);
    auto *wb = sys.makeWorkload<TouchPages>(b.vma, 24);
    sys.addThread(*wa, 0, *a.as);
    sys.addThread(*wb, 1, *a.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));

    EXPECT_EQ(sys.ssdAt(0).readsCompleted(), 16u);
    EXPECT_EQ(sys.ssdAt(1).readsCompleted(), 24u);
    EXPECT_EQ(sys.smu()->handled(), 40u);
}

namespace {

/** Mean read latency for a reader while a writer hammers dev 0. */
double
readLatencyUnderWrites(unsigned devices, unsigned reader_device)
{
    system::System sys(tinyConfig(devices));
    auto data = sys.mapDataset("data", 2048, nullptr, reader_device);
    auto *wal = sys.createFile("wal", 4096, 0);

    // Writer: a stream of WAL appends saturating device 0's channels.
    struct Writer : workloads::Workload
    {
        os::File *wal;
        std::uint64_t n = 0;
        explicit Writer(os::File *w) : wal(w) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (n >= 2000)
                return workloads::Op::makeDone();
            return workloads::Op::makeFileWrite(wal, n++, pageSize,
                                                true);
        }
        const char *label() const override { return "writer"; }
    };
    sys.addThread(*sys.makeWorkload<Writer>(wal), 0, *data.as);
    auto *reader = sys.makeWorkload<TouchPages>(data.vma, 400);
    auto *tc = sys.addThread(*reader, 1, *data.as);
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    return tc->faultedOpLatencyUs().mean();
}

} // namespace

TEST(MultiDevice, SecondDeviceIsolatesReadsFromWriteContention)
{
    // The YCSB-A effect in reverse: put the read working set on its
    // own device and the writer's channel occupancy stops inflating
    // read latency.
    double shared = readLatencyUnderWrites(1, 0);
    double isolated = readLatencyUnderWrites(2, 1);
    EXPECT_LT(isolated, shared * 0.85);
}

TEST(MultiDevice, TooManyDevicesRejected)
{
    EXPECT_THROW(system::System sys(tinyConfig(9)), FatalError);
    EXPECT_THROW(system::System sys(tinyConfig(0)), FatalError);
}

TEST(MultiDevice, FileOnUnattachedDeviceRejected)
{
    system::System sys(tinyConfig(1));
    EXPECT_THROW(sys.createFile("x", 64, 3), FatalError);
}

TEST(PerCoreQueues, EachCoreDrawsFromItsOwnQueue)
{
    auto cfg = tinyConfig(1);
    cfg.smu.perCoreFreeQueues = true;
    cfg.smu.freeQueueCapacity = 256; // 64 per core
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 4096);

    sys.addThread(*sys.makeWorkload<TouchPages>(mf.vma, 32), 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));

    EXPECT_EQ(sys.smu()->numFreeQueues(), 4u);
    // Core 0's queue was consumed; core 1's untouched.
    EXPECT_EQ(sys.smu()->freePageQueue(0).pops(), 32u);
    EXPECT_EQ(sys.smu()->freePageQueue(1).pops(), 0u);
}

TEST(PerCoreQueues, KpooldRefillsAllQueues)
{
    auto cfg = tinyConfig(1);
    cfg.smu.perCoreFreeQueues = true;
    cfg.smu.freeQueueCapacity = 256;
    system::System sys(cfg);
    sys.start();
    for (unsigned q = 0; q < 4; ++q)
        EXPECT_EQ(sys.smu()->freePageQueue(q).size(), 64u) << q;
}

TEST(PerCoreQueues, OneCoreCannotStarveAnother)
{
    // A fault storm on core 0 drains only queue 0; core 1's first
    // miss still succeeds in hardware immediately.
    auto cfg = tinyConfig(1);
    cfg.smu.perCoreFreeQueues = true;
    cfg.smu.freeQueueCapacity = 128; // 32 per core: storm drains it
    cfg.kpooldEnabled = true;
    cfg.kpooldPeriod = seconds(1.0); // too slow to mask the storm
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 4096);

    sys.addThread(*sys.makeWorkload<TouchPages>(mf.vma, 200), 0,
                  *mf.as);
    auto *late = sys.makeWorkload<TouchPages>(mf.vma, 1);
    struct Delayed : workloads::Workload
    {
        workloads::Workload *inner;
        bool idled = false;
        explicit Delayed(workloads::Workload *w) : inner(w) {}
        workloads::Op
        next(sim::Rng &rng) override
        {
            if (!idled) {
                idled = true;
                workloads::Op op;
                op.kind = workloads::Op::Kind::idle;
                op.idleTicks = milliseconds(2.0);
                return op;
            }
            return inner->next(rng);
        }
        const char *label() const override { return "delayed"; }
    };
    auto *delayed = sys.makeWorkload<Delayed>(late);
    // Touch a page the storm has not claimed (high end of the file).
    struct OneHigh : workloads::Workload
    {
        os::Vma *vma;
        bool done_ = false;
        explicit OneHigh(os::Vma *v) : vma(v) {}
        workloads::Op
        next(sim::Rng &) override
        {
            if (done_)
                return workloads::Op::makeDone();
            done_ = true;
            return workloads::Op::makeMem(vma->end - pageSize, false,
                                          true);
        }
        const char *label() const override { return "onehigh"; }
    };
    (void)delayed;
    auto *high = sys.makeWorkload<OneHigh>(mf.vma);
    sys.addThread(*high, 1, *mf.as);

    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(10.0)));
    // Core 0's storm overflowed to OS fallbacks, core 1 stayed pure
    // hardware.
    EXPECT_GT(sys.smu()->rejectedQueueEmpty(), 0u);
    EXPECT_EQ(sys.core(1).mmu().smuRejections(), 0u);
    EXPECT_EQ(sys.core(1).mmu().hwMisses(), 1u);
}
