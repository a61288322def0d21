/**
 * @file
 * CXL memory-buffer tier coverage: the CxlBuffer state machine in
 * isolation (hit/miss/admit/evict/writeback, capacity pressure, load
 * errors), per-socket isolation on a NUMA machine, and the
 * whole-machine gates — tier-on and tier-off runs must end with
 * equivalent user data in every paging mode, clean and under an
 * injected fault plan; a checkpoint of a machine with a populated
 * tier must round-trip; and stale-format blobs must be rejected with a
 * readable error.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/serialize.hh"
#include "system/checkpoint.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "tier/cxl_buffer.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

// ---- Unit: the buffer state machine on its own -----------------------------

namespace {

tier::CxlBuffer::Params
smallParams(std::uint64_t frames)
{
    tier::CxlBuffer::Params p;
    p.frames = frames;
    return p;
}

} // namespace

TEST(TierUnit, MissAdmitHitLifecycle)
{
    sim::EventQueue eq;
    tier::CxlBuffer buf("tier", eq, smallParams(4));

    auto r = buf.tryLoad(0, 9);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(buf.misses(), 1u);

    EXPECT_TRUE(buf.admit(0, 9, false));
    EXPECT_TRUE(buf.contains(0, 9));
    EXPECT_EQ(buf.admits(), 1u);
    EXPECT_EQ(buf.occupancy(), 1u);

    r = buf.tryLoad(0, 9);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, buf.params().load4k());
    EXPECT_EQ(buf.hits(), 1u);

    // Same LBA on another device is a distinct frame.
    EXPECT_FALSE(buf.contains(1, 9));
    EXPECT_FALSE(buf.tryLoad(1, 9).hit);

    // Re-admitting a resident frame refreshes bits, not occupancy.
    EXPECT_TRUE(buf.admit(0, 9, true));
    EXPECT_EQ(buf.occupancy(), 1u);

    buf.invalidate(0, 9);
    EXPECT_FALSE(buf.contains(0, 9));
}

TEST(TierUnit, FullBufferRejectsAdmitsAndFiresPressureHook)
{
    sim::EventQueue eq;
    tier::CxlBuffer buf("tier", eq, smallParams(2));
    unsigned kicks = 0;
    buf.setPressureHook([&] { ++kicks; });

    EXPECT_TRUE(buf.admit(0, 1, false));
    EXPECT_EQ(kicks, 0u); // 1 of 2 is below the high watermark
    EXPECT_TRUE(buf.admit(0, 2, false));
    EXPECT_EQ(kicks, 1u); // 2 of 2 crossed it

    EXPECT_FALSE(buf.admit(0, 3, false));
    EXPECT_EQ(buf.admitRejects(), 1u);
    EXPECT_EQ(kicks, 2u); // the reject kicks ktierd again
    EXPECT_FALSE(buf.contains(0, 3));
    EXPECT_EQ(buf.occupancyHighWater(), 2u);
}

TEST(TierUnit, ClockEvictionGivesReferencedFramesASecondChance)
{
    sim::EventQueue eq;
    tier::CxlBuffer buf("tier", eq, smallParams(4));
    for (Lba lba = 1; lba <= 4; ++lba)
        ASSERT_TRUE(buf.admit(0, lba, false));

    // Every frame was just admitted (referenced): the first sweep
    // only clears the bits and names no victim.
    EXPECT_FALSE(buf.pickVictim().valid);

    auto v = buf.pickVictim();
    ASSERT_TRUE(v.valid);
    EXPECT_FALSE(v.dirty);
    buf.dropClean(v.dev, v.lba);
    EXPECT_EQ(buf.evictsClean(), 1u);
    EXPECT_EQ(buf.occupancy(), 3u);
    EXPECT_FALSE(buf.contains(v.dev, v.lba));
}

TEST(TierUnit, WritebackKeepsFrameRedirtiedInFlight)
{
    sim::EventQueue eq;
    tier::CxlBuffer buf("tier", eq, smallParams(2));
    ASSERT_TRUE(buf.admit(0, 5, true));

    ASSERT_FALSE(buf.pickVictim().valid); // second-chance pass
    auto v = buf.pickVictim();
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);

    buf.beginWriteback(v.dev, v.lba);
    // A store lands while the write is in flight: absorbed, frame
    // re-dirtied, so completion must keep it.
    Tick lat = 0;
    EXPECT_TRUE(buf.absorbWrite(v.dev, v.lba, &lat));
    EXPECT_EQ(lat, buf.params().store4k());
    EXPECT_EQ(buf.writesAbsorbed(), 1u);
    buf.finishWriteback(v.dev, v.lba);
    EXPECT_EQ(buf.evictsDirty(), 1u);
    EXPECT_TRUE(buf.contains(v.dev, v.lba));

    // Evict again with no interleaved store: now the frame drops.
    ASSERT_FALSE(buf.pickVictim().valid);
    v = buf.pickVictim();
    ASSERT_TRUE(v.valid);
    buf.beginWriteback(v.dev, v.lba);
    buf.finishWriteback(v.dev, v.lba);
    EXPECT_FALSE(buf.contains(v.dev, v.lba));
    EXPECT_EQ(buf.occupancy(), 0u);

    // Writes around an absent frame pass through to the device.
    EXPECT_FALSE(buf.absorbWrite(0, 5, nullptr));
}

TEST(TierUnit, LoadErrorDropsCleanFramesAndRetriesDirtyOnes)
{
    sim::EventQueue eq;
    tier::CxlBuffer buf("tier", eq, smallParams(4));
    bool arm = false;
    buf.setLoadErrorHook([&] { return arm; });

    ASSERT_TRUE(buf.admit(0, 7, false)); // clean: SSD copy is current
    ASSERT_TRUE(buf.admit(0, 8, true));  // dirty: only copy lives here

    arm = true;
    auto r = buf.tryLoad(0, 7);
    EXPECT_FALSE(r.hit); // dropped; caller falls back to the SSD
    EXPECT_FALSE(buf.contains(0, 7));
    EXPECT_EQ(buf.loadErrors(), 1u);

    r = buf.tryLoad(0, 8);
    EXPECT_TRUE(r.hit); // retried once at doubled latency
    EXPECT_EQ(r.latency, 2 * buf.params().load4k());
    EXPECT_TRUE(buf.contains(0, 8));
    EXPECT_EQ(buf.loadErrors(), 2u);
}

// ---- Whole-machine gates ---------------------------------------------------

namespace {

/**
 * A machine small enough to reclaim (2 K frames against a 16 K page
 * dataset) so refaults actually probe the tier, with an 8 K-frame
 * buffer that holds the evicted half.
 */
system::MachineConfig
tierConfig(system::PagingMode mode, bool tier_on, unsigned sockets = 1)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.sockets = sockets;
    if (tier_on) {
        cfg.tierMode = system::TierMode::cxl;
        cfg.tierFrames = 8 * 1024;
    }
    return cfg;
}

struct RunResult
{
    ht::MachineState state;
    std::uint64_t tierHits = 0;
    std::uint64_t tierAdmits = 0;
};

RunResult
runMachine(system::MachineConfig cfg, char wl, double fault_rate = 0.0)
{
    system::System sys(cfg);
    ht::FaultPlan plan("plan", sys.eventQueue(), 97);
    std::unique_ptr<workloads::KvStore> store;
    system::System::MappedFile mf;
    workloads::Workload *w;
    if (wl == 'I') {
        // Enough ops that the touched set overflows the 2 K frames
        // and refaults land on tier-resident pages in every mode.
        mf = sys.mapDataset("f", 16 * 1024);
        w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 6000);
    } else {
        mf = sys.mapDataset("data", 16 * 1024);
        auto *wal = sys.createFile("wal", 8 * 1024);
        store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                     16 * 1024);
        w = sys.makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                      1600);
    }
    sys.addThread(*w, 0, *mf.as);
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }

    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    RunResult r;
    r.state = ht::snapshot(sys, pagingModeName(cfg.mode));
    if (auto *t = sys.tierAt(0)) {
        r.tierHits = t->hits();
        r.tierAdmits = t->admits();
    }
    return r;
}

constexpr system::PagingMode allModes[] = {system::PagingMode::osdp,
                                           system::PagingMode::hwdp,
                                           system::PagingMode::swsmu};

} // namespace

TEST(TierMachine, FioUserDataMatchesTierOffInEveryMode)
{
    for (auto mode : allModes) {
        SCOPED_TRACE(pagingModeName(mode));
        auto on = runMachine(tierConfig(mode, true), 'I');
        auto off = runMachine(tierConfig(mode, false), 'I');
        // The tier changes fault timing and reclaim order, so the
        // comparison is over what the application can observe.
        ht::DiffOptions opt;
        opt.userDataOnly = true;
        auto d = ht::diff(on.state, off.state, opt);
        EXPECT_TRUE(d.equivalent) << d.report;
        // And the tier actually served refaults — occupancy under
        // pressure, not a pass-through.
        EXPECT_GT(on.tierAdmits, 0u);
        EXPECT_GT(on.tierHits, 0u);
    }
}

TEST(TierMachine, YcsbUserDataMatchesTierOffInEveryMode)
{
    for (auto mode : allModes) {
        SCOPED_TRACE(pagingModeName(mode));
        auto on = runMachine(tierConfig(mode, true), 'A');
        auto off = runMachine(tierConfig(mode, false), 'A');
        ht::DiffOptions opt;
        opt.userDataOnly = true;
        auto d = ht::diff(on.state, off.state, opt);
        EXPECT_TRUE(d.equivalent) << d.report;
        EXPECT_GT(on.tierAdmits, 0u);
    }
}

TEST(TierMachine, FioEquivalentUnderOnePercentFaultPlan)
{
    // armAllAtRate arms the tier sites (tier_full_window,
    // tier_writeback_stall, tier_load_error) alongside the classic
    // ones: every injected error must be retried or bounced to the
    // same end state as a clean run.
    for (auto mode : allModes) {
        SCOPED_TRACE(pagingModeName(mode));
        auto faulty = runMachine(tierConfig(mode, true), 'I', 0.01);
        auto clean = runMachine(tierConfig(mode, true), 'I');
        ht::DiffOptions opt;
        opt.userDataOnly = true;
        auto d = ht::diff(faulty.state, clean.state, opt);
        EXPECT_TRUE(d.equivalent) << d.report;
    }
}

TEST(TierMachine, PerSocketBuffersAreIsolated)
{
    // One thread faulting through socket 0's device must leave socket
    // 1's buffer untouched: residency is keyed per socket, never
    // shared across the interconnect.
    auto cfg = tierConfig(system::PagingMode::hwdp, true, 2);
    system::System sys(cfg);
    auto mf = sys.mapDataset("f0", 16 * 1024, nullptr, 0);
    auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000);
    sys.addThread(*w, 0, *mf.as);
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    auto *t0 = sys.tierAt(0);
    auto *t1 = sys.tierAt(1);
    ASSERT_NE(t0, nullptr);
    ASSERT_NE(t1, nullptr);
    EXPECT_GT(t0->admits(), 0u);
    EXPECT_GT(t0->hits(), 0u);
    EXPECT_EQ(t1->occupancy(), 0u);
    EXPECT_EQ(t1->hits() + t1->misses() + t1->admits(), 0u);
}

// ---- Checkpointing a populated tier ----------------------------------------

namespace {

struct TierMachine
{
    std::unique_ptr<system::System> sys;
    system::System::MappedFile mf;

    void
    addThread(std::uint64_t ops)
    {
        auto *w =
            sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
        sys->addThread(*w, 0, *mf.as);
    }
};

/**
 * The boot recipe shared by the save side and the restore side, warm
 * thread included — the checkpoint contract demands the restore
 * target be booted identically, down to the thread count.
 */
TierMachine
bootTierMachine()
{
    TierMachine m;
    m.sys = std::make_unique<system::System>(
        tierConfig(system::PagingMode::hwdp, true));
    m.mf = m.sys->mapDataset("f", 16 * 1024);
    m.addThread(4000);
    return m;
}

std::vector<std::uint64_t>
tierEntries(system::System &sys)
{
    std::vector<std::uint64_t> keys;
    sys.tierAt(0)->forEachEntry([&](unsigned dev, Lba lba, bool dirty) {
        keys.push_back((std::uint64_t(dev) << 49) | (lba << 1) |
                       (dirty ? 1 : 0));
    });
    return keys;
}

} // namespace

TEST(TierCheckpoint, PopulatedTierRoundTripsAndContinues)
{
    // Warm a machine until the buffer holds evicted frames, save it,
    // restore onto a freshly booted twin, then run both forward: the
    // frame maps must match at restore and the futures must stay
    // byte-identical.
    auto a = bootTierMachine();
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(*a.sys);
    ASSERT_GT(a.sys->tierAt(0)->occupancy(), 0u);

    system::CheckpointStats st;
    auto blob = system::Checkpoint::save(*a.sys, &st);
    EXPECT_GT(st.blobBytes, 0u);

    auto b = bootTierMachine();
    system::Checkpoint::restore(*b.sys, blob, nullptr);
    EXPECT_EQ(tierEntries(*a.sys), tierEntries(*b.sys));
    EXPECT_EQ(a.sys->tierAt(0)->hits(), b.sys->tierAt(0)->hits());
    EXPECT_EQ(a.sys->tierAt(0)->admits(), b.sys->tierAt(0)->admits());

    a.addThread(700);
    b.addThread(700);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(60.0)));
    ASSERT_TRUE(b.sys->runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(*a.sys);
    ht::quiesce(*b.sys);

    std::ostringstream da, db;
    ht::dumpMachineStats(*a.sys, da);
    ht::dumpMachineStats(*b.sys, db);
    EXPECT_EQ(da.str(), db.str());
    EXPECT_EQ(ht::logicalStateHash(*a.sys),
              ht::logicalStateHash(*b.sys));
}

TEST(TierCheckpoint, StaleFormatVersionIsRejected)
{
    auto a = bootTierMachine();
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(60.0)));
    ht::quiesce(*a.sys);
    auto blob = system::Checkpoint::save(*a.sys, nullptr);

    // A v3 blob, counters in component sections, differs in the
    // version field that follows the 4-byte magic; restore must refuse
    // it by name, not crash decoding sections laid out differently.
    auto bad = blob;
    bad[4] = 3;
    auto b = bootTierMachine();
    try {
        system::Checkpoint::restore(*b.sys, bad, nullptr);
        FAIL() << "stale-version blob was accepted";
    } catch (const sim::SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}
