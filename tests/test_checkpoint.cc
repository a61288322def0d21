/**
 * @file
 * Machine checkpointing: a warmed machine saved, restored onto an
 * identically booted twin and continued must be indistinguishable —
 * byte-identical stats dumps and equal logical-state hashes versus
 * the straight run — for every paging mode and workload, clean and
 * under an injected fault plan. Plus unit blob round-trips for the
 * leaf serializers, rejection of foreign, stale-version and
 * wrong-config blobs, and config hashes pinned to the values v3 blobs
 * were saved with.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"
#include "system/checkpoint.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "tests/heap_counting.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

namespace {

constexpr std::uint64_t warmOps = 900;
constexpr std::uint64_t measOps = 700;

struct Scenario
{
    system::PagingMode mode;
    char wl; // 'I' = FIO, 'A' = YCSB-A
    double faultRate;
};

std::string
scenarioName(const Scenario &sc)
{
    std::ostringstream os;
    os << pagingModeName(sc.mode) << "/" << sc.wl << "/rate"
       << sc.faultRate;
    return os.str();
}

system::MachineConfig
smallConfig(const Scenario &sc)
{
    system::MachineConfig cfg;
    cfg.mode = sc.mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    return cfg;
}

/**
 * One machine built by the scenario's boot recipe: config, dataset,
 * fault plan and the warm-up thread. Both the save side and the
 * restore side boot through this, as the checkpoint contract demands.
 */
struct Machine
{
    std::unique_ptr<system::System> sys;
    std::unique_ptr<ht::FaultPlan> plan;
    std::unique_ptr<workloads::KvStore> store;
    system::System::MappedFile mf;

    /** Add one more workload thread (the measurement phase). */
    void
    addThread(char wl, std::uint64_t ops)
    {
        workloads::Workload *w;
        if (wl == 'I')
            w = sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
        else
            w = sys->makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                           ops);
        sys->addThread(*w, 0, *mf.as);
    }
};

Machine
boot(const Scenario &sc)
{
    Machine m;
    m.sys = std::make_unique<system::System>(smallConfig(sc));
    m.plan = std::make_unique<ht::FaultPlan>("plan",
                                             m.sys->eventQueue(), 97);
    if (sc.wl == 'I') {
        m.mf = m.sys->mapDataset("f", 8 * 1024);
    } else {
        m.mf = m.sys->mapDataset("data", 16 * 1024);
        auto *wal = m.sys->createFile("wal", 8 * 1024);
        m.store = std::make_unique<workloads::KvStore>(m.mf.vma, wal,
                                                       16 * 1024);
    }
    m.addThread(sc.wl, warmOps);
    if (sc.faultRate > 0.0) {
        m.plan->attach(*m.sys);
        m.plan->armAllAtRate(sc.faultRate);
    }
    return m;
}

/** Measurement phase + end-state capture, shared by both paths. */
void
finish(Machine &m, const Scenario &sc, std::string &stats,
       std::uint64_t &hash)
{
    m.addThread(sc.wl, measOps);
    ASSERT_TRUE(m.sys->runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(*m.sys);
    auto inv = ht::checkInvariants(*m.sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
    std::ostringstream os;
    ht::dumpMachineStats(*m.sys, os);
    stats = os.str();
    hash = ht::snapshot(*m.sys, "end").stateHash;
}

/**
 * The round-trip property: warm, save, continue on the saved machine
 * (straight) and on a restored twin (forked); both measurement phases
 * must be byte-identical. The fault plan is a test-side attachment,
 * so its cursors ride in a side blob the same way a bench would
 * carry them.
 */
void
expectRoundTripIdentity(const Scenario &sc)
{
    SCOPED_TRACE(scenarioName(sc));

    // Straight path: warm, save, resume, measure.
    Machine a = boot(sc);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    system::CheckpointStats st;
    std::vector<std::uint8_t> blob = system::Checkpoint::save(*a.sys,
                                                              &st);
    EXPECT_EQ(st.blobBytes, blob.size());
    EXPECT_GT(blob.size(), 0u);
    sim::Serializer ps = sim::Serializer::saver();
    a.plan->serialize(ps);
    std::vector<std::uint8_t> planBlob = ps.takeBlob();
    a.sys->resumeKthreads();
    std::string statsA;
    std::uint64_t hashA = 0;
    finish(a, sc, statsA, hashA);

    // Forked path: boot the same recipe, restore, resume, measure.
    Machine b = boot(sc);
    system::CheckpointStats rst;
    system::Checkpoint::restore(*b.sys, blob, &rst);
    EXPECT_EQ(rst.tick, st.tick);
    EXPECT_EQ(rst.logicalHash, st.logicalHash);
    sim::Serializer pl = sim::Serializer::loader(planBlob);
    b.plan->serialize(pl);
    // A freshly restored machine must already satisfy every invariant
    // before it runs a single further event.
    auto inv0 = ht::checkInvariants(*b.sys);
    EXPECT_TRUE(inv0.empty()) << inv0.front();
    b.sys->resumeKthreads();
    EXPECT_EQ(b.sys->now(), st.tick);
    std::string statsB;
    std::uint64_t hashB = 0;
    finish(b, sc, statsB, hashB);

    EXPECT_EQ(hashA, hashB);
    EXPECT_EQ(statsA, statsB) << "stats dumps diverge for "
                              << scenarioName(sc);
}

} // namespace

TEST(Checkpoint, RoundTripIdentityAcrossModesAndWorkloads)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        for (char wl : {'I', 'A'})
            expectRoundTripIdentity({mode, wl, 0.0});
    }
}

TEST(Checkpoint, RoundTripIdentityUnderOnePercentFaultPlan)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        for (char wl : {'I', 'A'})
            expectRoundTripIdentity({mode, wl, 0.01});
    }
}

TEST(Checkpoint, SaveRefusesARunningMachine)
{
    Scenario sc{system::PagingMode::hwdp, 'I', 0.0};
    Machine m = boot(sc);
    m.sys->runFor(microseconds(50.0));
    EXPECT_THROW(system::Checkpoint::save(*m.sys), sim::SerializeError);
}

TEST(Checkpoint, SaveRefusesANeverStartedMachine)
{
    Scenario sc{system::PagingMode::hwdp, 'I', 0.0};
    Machine m = boot(sc);
    EXPECT_THROW(system::Checkpoint::save(*m.sys), sim::SerializeError);
}

TEST(Checkpoint, RejectsForeignStaleAndMisconfiguredBlobs)
{
    Scenario sc{system::PagingMode::hwdp, 'I', 0.0};
    Machine a = boot(sc);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    auto blob = system::Checkpoint::save(*a.sys);

    // Bad magic: not a checkpoint blob at all.
    {
        auto bad = blob;
        bad[0] ^= 0xff;
        Machine b = boot(sc);
        try {
            system::Checkpoint::restore(*b.sys, bad);
            FAIL() << "foreign blob accepted";
        } catch (const sim::SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("magic"),
                      std::string::npos)
                << e.what();
        }
    }

    // Version mismatch: a v6 blob, from before the fast-VMA list's
    // section was dropped.
    {
        auto bad = blob;
        bad[4] = 6; // version field follows the 4-byte magic
        Machine b = boot(sc);
        try {
            system::Checkpoint::restore(*b.sys, bad);
            FAIL() << "stale-version blob accepted";
        } catch (const sim::SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }
    }

    // Config mismatch: restore target booted with a different shape.
    {
        Scenario other = sc;
        other.mode = system::PagingMode::swsmu;
        Machine b = boot(other);
        EXPECT_THROW(system::Checkpoint::restore(*b.sys, blob),
                     sim::SerializeError);
    }
}

TEST(Checkpoint, ConfigHashGoldenValues)
{
    // The hashes v6 blobs carry. A change here orphans every saved
    // blob of that shape: bump Checkpoint::formatVersion instead of
    // updating a value.
    system::MachineConfig def;
    EXPECT_EQ(system::Checkpoint::configHash(def), 0xade34e89647bb0d6ULL);

    system::MachineConfig two_socket = def;
    two_socket.sockets = 2;
    EXPECT_EQ(system::Checkpoint::configHash(two_socket),
              0x60c4c27537673598ULL);

    system::MachineConfig cxl = def;
    cxl.tierMode = system::TierMode::cxl;
    EXPECT_EQ(system::Checkpoint::configHash(cxl), 0xd91e42712732883cULL);

    system::MachineConfig thp = def;
    thp.pageMode = PageMode::thp;
    EXPECT_EQ(system::Checkpoint::configHash(thp), 0x3cb02cca6ba504a9ULL);

    system::MachineConfig coalesce = def;
    coalesce.pageMode = PageMode::coalesce;
    EXPECT_EQ(system::Checkpoint::configHash(coalesce),
              0xee926f372bf8ce21ULL);

    // Shape knobs outside the pinned set still separate blobs.
    system::MachineConfig base =
        smallConfig({system::PagingMode::hwdp, 'I', 0.0});
    system::MachineConfig seeded = base;
    seeded.seed += 1;
    EXPECT_NE(system::Checkpoint::configHash(base),
              system::Checkpoint::configHash(seeded));

    system::MachineConfig bigger = base;
    bigger.memFrames *= 2;
    EXPECT_NE(system::Checkpoint::configHash(base),
              system::Checkpoint::configHash(bigger));
}

TEST(Checkpoint, ConfigHashSeparatesEverySettableValue)
{
    // One row per settable MachineConfig value, perturbed in a base
    // where it is live: a value the hash missed would let machines
    // with different results restore each other's blobs.
    using Cfg = system::MachineConfig;
    auto one = [](Cfg &) {};
    auto cxl = [](Cfg &c) { c.tierMode = system::TierMode::cxl; };
    struct Row
    {
        const char *name;
        void (*base)(Cfg &);
        void (*perturb)(Cfg &);
    };
    const Row rows[] = {
        {"mode", one, [](Cfg &c) { c.mode = system::PagingMode::hwdp; }},
        {"nLogical", one, [](Cfg &c) { c.nLogical = 8; }},
        {"nPhysical", one, [](Cfg &c) { c.nPhysical = 4; }},
        {"sockets", one, [](Cfg &c) { c.sockets = 2; }},
        {"pageMode", one, [](Cfg &c) { c.pageMode = PageMode::napot; }},
        {"memFrames", one, [](Cfg &c) { c.memFrames *= 2; }},
        {"ssdProfile", one, [](Cfg &c) { c.ssdProfile = "optane_ssd"; }},
        {"nDevices", one, [](Cfg &c) { c.nDevices = 2; }},
        {"tierMode", one, cxl},
        {"tierFrames", cxl, [](Cfg &c) { ++c.tierFrames; }},
        {"smu.pmshrEntries", one, [](Cfg &c) { c.smu.pmshrEntries = 16; }},
        {"smu.freeQueueCapacity", one,
         [](Cfg &c) { c.smu.freeQueueCapacity = 1024; }},
        {"smu.sequentialPrefetch", one,
         [](Cfg &c) { c.smu.sequentialPrefetch = true; }},
        {"smu.perCoreFreeQueues", one,
         [](Cfg &c) { c.smu.perCoreFreeQueues = true; }},
        {"hwStallTimeout", one,
         [](Cfg &c) { c.hwStallTimeout = microseconds(10.0); }},
        {"kpooldEnabled", one, [](Cfg &c) { c.kpooldEnabled = false; }},
        {"kpooldPeriod", one,
         [](Cfg &c) { c.kpooldPeriod = milliseconds(8.0); }},
        {"kpooldBatch", one, [](Cfg &c) { c.kpooldBatch = 512; }},
        {"kptedPeriod", one,
         [](Cfg &c) { c.kptedPeriod = milliseconds(50.0); }},
        {"kptedGuidedScan", one, [](Cfg &c) { c.kptedGuidedScan = false; }},
        {"seed", one, [](Cfg &c) { ++c.seed; }},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(r.name);
        Cfg base;
        r.base(base);
        Cfg changed = base;
        r.perturb(changed);
        EXPECT_NE(system::Checkpoint::configHash(base),
                  system::Checkpoint::configHash(changed));
    }

    // Host-only values leave results bit-identical (any memQuantum:
    // FastPathDifferential), so they must not split blobs.
    Cfg base;
    Cfg loud = base;
    loud.quiet = false;
    EXPECT_EQ(system::Checkpoint::configHash(base),
              system::Checkpoint::configHash(loud));
    Cfg quantum = base;
    quantum.core.memQuantum = 1;
    EXPECT_EQ(system::Checkpoint::configHash(base),
              system::Checkpoint::configHash(quantum));
}

namespace {

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &blob)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (std::uint8_t b : blob) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * A machine whose dataset is over five times its memory. Warmed up,
 * reclaim has evicted, demoted and second-chanced pages, so the LRU
 * lists, page tables and frame metadata all carry churn.
 */
struct ReclaimedMachine
{
    std::unique_ptr<system::System> sys;
    std::unique_ptr<workloads::KvStore> store;

    ReclaimedMachine(system::PagingMode mode, char wl)
    {
        system::MachineConfig cfg = smallConfig({mode, wl, 0.0});
        cfg.memFrames = 1536;
        cfg.smu.freeQueueCapacity = 128;
        cfg.kpooldBatch = 128;
        sys = std::make_unique<system::System>(cfg);
        system::System::MappedFile mf;
        workloads::Workload *w;
        if (wl == 'I') {
            mf = sys->mapDataset("f", 8 * 1024);
            w = sys->makeWorkload<workloads::FioWorkload>(mf.vma, 10000);
        } else {
            mf = sys->mapDataset("data", 16 * 1024);
            auto *wal = sys->createFile("wal", 2 * 1024);
            store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                         16 * 1024);
            w = sys->makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                           10000);
        }
        sys->addThread(*w, 0, *mf.as);
    }
};

/** Blob of a warmed-up ReclaimedMachine. */
std::vector<std::uint8_t>
reclaimedBlob(system::PagingMode mode, char wl)
{
    ReclaimedMachine m(mode, wl);
    EXPECT_TRUE(m.sys->runUntilThreadsDone(seconds(30.0)));
    auto &rc = m.sys->kernel().reclaimer();
    EXPECT_GT(rc.pagesEvicted(), 0u);
    EXPECT_GT(rc.lru().activeCount(), 0u);
    EXPECT_GT(rc.lru().inactiveCount(), 0u);
    return system::Checkpoint::save(*m.sys);
}

} // namespace

TEST(Checkpoint, GoldenBlobHashes)
{
    // Whole-blob pins: every serialized byte of a reclaimed machine,
    // LRU order and page-table layout included. A host-side layout
    // change must leave them alone; a deliberate format change bumps
    // Checkpoint::formatVersion or says which bytes moved.
    using system::PagingMode;
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::osdp, 'I')),
              0x294e22143dea19faULL);
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::hwdp, 'I')),
              0xc2a09ff737331916ULL);
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::swsmu, 'I')),
              0x5bff58378bd1496bULL);
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::osdp, 'A')),
              0xeb810d142a91dbb1ULL);
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::hwdp, 'A')),
              0x228764770710cd1aULL);
    EXPECT_EQ(fnv1a(reclaimedBlob(PagingMode::swsmu, 'A')),
              0x1c57169f68dfa8b1ULL);
}

TEST(Checkpoint, GoldenBlobSizesAndResaveIdentity)
{
    // The sizes of GoldenBlobHashes' blobs, and the round trip the
    // format closes: a twin restored from a blob saves the same bytes.
    using system::PagingMode;
    struct Pin
    {
        PagingMode mode;
        char wl;
        std::size_t bytes;
    };
    for (const Pin &p : {Pin{PagingMode::osdp, 'I', 2516089},
                         Pin{PagingMode::hwdp, 'I', 2467998},
                         Pin{PagingMode::swsmu, 'I', 2520096},
                         Pin{PagingMode::osdp, 'A', 1374692},
                         Pin{PagingMode::hwdp, 'A', 1322443},
                         Pin{PagingMode::swsmu, 'A', 1374481}}) {
        SCOPED_TRACE(scenarioName({p.mode, p.wl, 0.0}));
        const std::vector<std::uint8_t> blob = reclaimedBlob(p.mode, p.wl);
        EXPECT_EQ(blob.size(), p.bytes);
        ReclaimedMachine twin(p.mode, p.wl);
        system::Checkpoint::restore(*twin.sys, blob);
        EXPECT_TRUE(system::Checkpoint::save(*twin.sys) == blob);
    }
}

TEST(Checkpoint, PageCacheFlagMismatchIsReportedAndNotSaved)
{
    // A blob keeps the frames' inPageCache flags, not the page cache:
    // a restore rebuilds the index from them. The audit reports a flag
    // that disagrees with the index either way, and a save refuses a
    // machine whose flag count and index size differ.
    Scenario sc{system::PagingMode::osdp, 'I', 0.0};
    Machine m = boot(sc);
    ASSERT_TRUE(m.sys->runUntilThreadsDone(seconds(30.0)));
    ASSERT_TRUE(ht::checkInvariants(*m.sys).empty());
    os::Kernel &k = m.sys->kernel();
    Pfn pfn = 0;
    while (pfn < k.numFrames() && !k.page(pfn).inPageCache)
        ++pfn;
    ASSERT_LT(pfn, k.numFrames());
    os::Page &pg = k.page(pfn);
    auto reports = [&](const std::string &what) {
        for (const std::string &r : ht::checkInvariants(*m.sys)) {
            if (r.find(what) != std::string::npos)
                return true;
        }
        return false;
    };

    // A cached frame that lost its flag.
    pg.inPageCache = false;
    EXPECT_TRUE(reports("frames are flagged inPageCache"));
    EXPECT_THROW(system::Checkpoint::save(*m.sys), sim::SerializeError);
    pg.inPageCache = true;
    EXPECT_TRUE(ht::checkInvariants(*m.sys).empty());

    // A flagged frame the index holds under no page of its own.
    pg.index += k.numFrames();
    EXPECT_TRUE(reports("frame " + std::to_string(pfn) +
                        ": flagged inPageCache, but the page cache maps"));
}

TEST(Checkpoint, FileRoundTripAndMissingFileFallback)
{
    Scenario sc{system::PagingMode::osdp, 'I', 0.0};
    Machine a = boot(sc);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));

    std::string path = ::testing::TempDir() + "hwdp_ckpt_test.ckpt";
    system::CheckpointStats st;
    system::Checkpoint::saveFile(*a.sys, path, &st);
    EXPECT_GT(st.blobBytes, 0u);

    Machine b = boot(sc);
    EXPECT_FALSE(system::Checkpoint::restoreFile(
        *b.sys, path + ".missing"));
    system::CheckpointStats rst;
    ASSERT_TRUE(system::Checkpoint::restoreFile(*b.sys, path, &rst));
    EXPECT_EQ(rst.tick, st.tick);
    EXPECT_EQ(rst.logicalHash, st.logicalHash);
    std::remove(path.c_str());
}

TEST(Checkpoint, RestoreReadsAConstBlobInPlace)
{
    // The loader reads the caller's bytes where they are: a restore
    // from a const blob leaves every byte of it as it was.
    Scenario sc{system::PagingMode::hwdp, 'A', 0.0};
    Machine a = boot(sc);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    const std::vector<std::uint8_t> blob = system::Checkpoint::save(*a.sys);
    const std::vector<std::uint8_t> copy = blob;

    Machine b = boot(sc);
    system::CheckpointStats st;
    system::Checkpoint::restore(*b.sys, blob, &st);
    EXPECT_EQ(st.blobBytes, blob.size());
    EXPECT_EQ(blob, copy);
}

TEST(CheckpointUnit, LoaderOverABlobAllocatesNothing)
{
    if (!HWDP_HEAP_COUNTING)
        GTEST_SKIP() << "counting allocator compiled out (sanitizer)";
    const std::vector<std::uint8_t> blob(1 << 20, 0x5a);
    const std::uint64_t before = ht::heapAllocs();
    sim::Serializer s = sim::Serializer::loader(blob, 8);
    std::uint64_t word = 0;
    s.io(word);
    const bool at16 = s.offset() == 16;
    EXPECT_EQ(ht::heapAllocs(), before);
    EXPECT_TRUE(at16);
    EXPECT_EQ(word, 0x5a5a5a5a5a5a5a5aULL);
    EXPECT_FALSE(s.exhausted());
}

TEST(Checkpoint, DescribeCarriesProvenance)
{
    Scenario sc{system::PagingMode::hwdp, 'I', 0.0};
    Machine a = boot(sc);
    EXPECT_NE(a.sys->describe().find("cold boot"), std::string::npos);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    auto blob = system::Checkpoint::save(*a.sys);

    Machine b = boot(sc);
    system::Checkpoint::restore(*b.sys, blob);
    std::string d = b.sys->describe();
    EXPECT_NE(d.find("restored at tick"), std::string::npos) << d;
    EXPECT_NE(d.find(std::to_string(blob.size()) + "-byte"),
              std::string::npos)
        << d;
}

// ---- Every registered stat rides in the blob ----------------------------

namespace {

/**
 * A machine with every feature whose counters register only when it
 * is on: two sockets, transparent coalescing, the CXL tier and a 1 %
 * fault plan, under enough memory pressure to reclaim.
 */
Machine
bootEveryFeature()
{
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::hwdp;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.sockets = 2;
    cfg.memFrames = 6 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.pageMode = PageMode::coalesce;
    cfg.tierMode = system::TierMode::cxl;
    cfg.tierFrames = 2 * 1024;

    Machine m;
    m.sys = std::make_unique<system::System>(cfg);
    m.plan = std::make_unique<ht::FaultPlan>("plan",
                                             m.sys->eventQueue(), 97);
    for (unsigned s = 0; s < cfg.sockets; ++s) {
        auto mf = m.sys->mapDataset("f" + std::to_string(s), 4 * 1024,
                                    nullptr, s);
        auto *w = m.sys->makeWorkload<workloads::FioWorkload>(
            mf.vma, 2 * warmOps, 300, true, 0.3);
        m.sys->addThread(*w, s * cfg.coresPerSocket(), *mf.as);
    }
    m.plan->attach(*m.sys);
    m.plan->armAllAtRate(0.01);
    return m;
}

std::string
statsDump(system::System &sys)
{
    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    return os.str();
}

} // namespace

TEST(Checkpoint, RestoreReproducesEveryRegisteredStat)
{
    // The round-trip tests compare dumps after a continued run. Here
    // the twin's dump right after restore must already equal the
    // saved machine's at save time: a stat the blob dropped shows up
    // before any later counting can mask it.
    Machine a = bootEveryFeature();
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    std::vector<std::uint8_t> blob = system::Checkpoint::save(*a.sys);
    std::string saved = statsDump(*a.sys);
    EXPECT_GT(a.plan->totalInjections(), 0u);
    for (const char *key :
         {"socket1.shootdown_epoch", "mmu0.remote_dram_accesses",
          "mmu0.walker.remote_walk_steps", "smu0.remote_requests",
          "kpted.remote_shootdown_ipis", "kernel.huge_promotions",
          "mmu0.tlb.wide_hits", "kcoalesced.windows_scanned",
          "system.wide_shootdowns_delayed", "tier0.occupancy_high_water"})
        EXPECT_NE(saved.find(key), std::string::npos) << key;

    Machine b = bootEveryFeature();
    system::Checkpoint::restore(*b.sys, blob);
    EXPECT_EQ(statsDump(*b.sys), saved);
}

// ---- Leaf blob round-trips ---------------------------------------------

TEST(CheckpointUnit, BulkRangesWriteThePerElementBytes)
{
    // Contiguous arithmetic ranges go out in one copy; the bytes must
    // be those of one io() per element, and a load must read them
    // back.
    sim::Rng rng(7);
    std::vector<std::uint64_t> words(1000);
    for (auto &w : words)
        w = rng.next();
    std::array<std::uint64_t, 37> table{};
    for (auto &w : table)
        w = rng.next();
    std::vector<std::uint8_t> counters(301);
    for (auto &c : counters)
        c = static_cast<std::uint8_t>(rng.range(4));

    sim::Serializer bulk = sim::Serializer::saver();
    bulk.io(words);
    bulk.io(table);
    bulk.io(counters);
    sim::Serializer each = sim::Serializer::saver();
    std::uint64_t n = words.size();
    each.io(n);
    for (auto &w : words)
        each.io(w);
    for (auto &w : table)
        each.io(w);
    n = counters.size();
    each.io(n);
    for (auto &c : counters)
        each.io(c);
    EXPECT_EQ(bulk.blob(), each.blob());

    std::vector<std::uint64_t> words2;
    std::array<std::uint64_t, 37> table2{};
    std::vector<std::uint8_t> counters2;
    sim::Serializer l = sim::Serializer::loader(bulk.blob());
    l.io(words2);
    l.io(table2);
    l.io(counters2);
    EXPECT_TRUE(l.exhausted());
    EXPECT_EQ(words2, words);
    EXPECT_EQ(table2, table);
    EXPECT_EQ(counters2, counters);

    // A stored count beyond the bytes left is refused before the load
    // allocates for it.
    std::vector<std::uint8_t> bad = bulk.blob();
    const std::uint64_t huge = std::uint64_t(1) << 60;
    std::memcpy(bad.data(), &huge, sizeof(huge));
    sim::Serializer lb = sim::Serializer::loader(bad);
    EXPECT_THROW(lb.io(words2), sim::SerializeError);
}

TEST(CheckpointUnit, SparseRecordsSkipBlanksAndResetThemOnLoad)
{
    // 130 records over three bitmap words; 1 in 5 differs from its
    // blank (0) and goes out.
    std::vector<std::uint64_t> recs(130, 0);
    for (std::size_t i = 0; i < recs.size(); i += 5)
        recs[i] = 1000 + i;
    auto blank = [](std::uint64_t) { return std::uint64_t(0); };
    sim::Serializer s = sim::Serializer::saver();
    const std::uint64_t saved =
        s.sparse(recs, blank, [&](std::uint64_t &r) { s.io(r); });
    EXPECT_EQ(saved, 26u);
    EXPECT_EQ(s.blob().size(), (3 + 26) * sizeof(std::uint64_t));

    // The twin's stale values in absent slots are reset.
    std::vector<std::uint64_t> twin(130, 77);
    sim::Serializer l = sim::Serializer::loader(s.blob());
    const std::uint64_t loaded =
        l.sparse(twin, blank, [&](std::uint64_t &r) { l.io(r); });
    EXPECT_EQ(loaded, saved);
    EXPECT_TRUE(l.exhausted());
    EXPECT_EQ(twin, recs);

    // A sizer counts exactly what the saver wrote, and keeps nothing.
    sim::Serializer z = sim::Serializer::sizer();
    z.sparse(recs, blank, [&](std::uint64_t &r) { z.io(r); });
    EXPECT_EQ(z.offset(), s.blob().size());
    EXPECT_TRUE(z.blob().empty());
}

TEST(CheckpointUnit, RngBlobRoundTrip)
{
    sim::Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    sim::Serializer s = sim::Serializer::saver();
    a.serialize(s);
    auto blob = s.takeBlob();

    sim::Rng b(999); // different state, fully overwritten by the load
    sim::Serializer l = sim::Serializer::loader(blob);
    b.serialize(l);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(CheckpointUnit, EventQueueBlobRoundTrip)
{
    sim::EventQueue a;
    int fired = 0;
    a.post(100, [&] { ++fired; });
    a.run();
    a.post(250, [&] { ++fired; });
    a.run();
    ASSERT_EQ(fired, 2);
    ASSERT_EQ(a.now(), 250u);

    sim::Serializer s = sim::Serializer::saver();
    a.serialize(s);
    auto blob = s.takeBlob();

    sim::EventQueue b;
    sim::Serializer l = sim::Serializer::loader(blob);
    b.serialize(l);
    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.processedCount(), a.processedCount());
    EXPECT_EQ(b.poolStats().created, a.poolStats().created);

    // Same-tick ordering is by sequence number; a restored queue must
    // continue the saved sequence, so two queues that each post the
    // same next event process it at the same tick.
    int fired2 = 0;
    b.post(300, [&] { ++fired2; });
    b.run();
    EXPECT_EQ(fired2, 1);
    EXPECT_EQ(b.now(), 300u);
}

TEST(CheckpointUnit, EventQueueRefusesPendingEvents)
{
    sim::EventQueue a;
    a.post(100, [] {});
    sim::Serializer s = sim::Serializer::saver();
    EXPECT_THROW(a.serialize(s), sim::SerializeError);
}

TEST(CheckpointUnit, StatGroupBlobRoundTrip)
{
    sim::StatGroup a("grp");
    sim::Counter c(a, "hits", "hits counted");
    sim::Mean m(a, "lat", "latency");
    c += 41;
    m.sample(2.5);
    m.sample(7.5);

    sim::Serializer s = sim::Serializer::saver();
    a.serialize(s);
    auto blob = s.takeBlob();

    sim::StatGroup b("grp");
    sim::Counter c2(b, "hits", "hits counted");
    sim::Mean m2(b, "lat", "latency");
    sim::Serializer l = sim::Serializer::loader(blob);
    b.serialize(l);
    EXPECT_EQ(c2.value(), 41u);

    std::ostringstream da, db;
    a.dump(da);
    b.dump(db);
    EXPECT_EQ(da.str(), db.str());

    // A group whose stat roster changed must reject the old blob.
    sim::StatGroup c3("grp");
    sim::Counter c4(c3, "misses", "renamed stat");
    sim::Mean m3(c3, "lat", "latency");
    sim::Serializer l2 = sim::Serializer::loader(blob);
    EXPECT_THROW(c3.serialize(l2), sim::SerializeError);
}
