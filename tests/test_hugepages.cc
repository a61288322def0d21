/**
 * @file
 * Huge pages and contiguity-aware translation: PTE wide encodings,
 * page-table leaf operations, TLB reach, contiguous frame allocation,
 * whole-machine THP/NAPOT/coalesce runs with the wide invariants
 * audited, the pageMode=off bit-identity gate, cross-mode
 * user-visible-data equivalence and checkpoint round-trips with wide
 * PTEs live.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/kcoalesced.hh"
#include "cpu/tlb.hh"
#include "mem/phys_mem.hh"
#include "os/page_table.hh"
#include "os/pte.hh"
#include "sim/event_queue.hh"
#include "sim/serialize.hh"
#include "system/checkpoint.hh"
#include "system/system.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

// ---- PTE wide encodings -------------------------------------------------

TEST(HugePte, LeafEncodingRoundTrips)
{
    using namespace os::pte;
    Entry e = makeHugeLeaf(512, writableBit);
    EXPECT_TRUE(isPresent(e));
    EXPECT_TRUE(isHugeLeaf(e));
    EXPECT_EQ(pfnOf(e), 512u);
    EXPECT_EQ(reachOf(e), pmdLeafShift);
    EXPECT_FALSE(hasNapotBit(e));
}

TEST(HugePte, NapotStampRoundTrips)
{
    using namespace os::pte;
    Entry e = makePresent(48, writableBit);
    EXPECT_EQ(reachOf(e), 0u);
    e = setNapotBit(e);
    EXPECT_TRUE(hasNapotBit(e));
    EXPECT_EQ(reachOf(e), napotShift);
    EXPECT_FALSE(isHugeLeaf(e));
    e = clearNapotBit(e);
    EXPECT_FALSE(hasNapotBit(e));
    EXPECT_EQ(reachOf(e), 0u);
    // The stamp means nothing on a non-present entry.
    EXPECT_FALSE(hasNapotBit(setNapotBit(Entry(0))));
}

// ---- Page-table leaf operations -----------------------------------------

namespace {
constexpr VAddr hugeWin = 0x7f40'0000'0000ULL; // 2 MB aligned
}

TEST(HugePageTable, LeafSynthesizesPer4kReads)
{
    os::PageTable pt;
    pt.writeHugeLeaf(hugeWin,
                     os::pte::makeHugeLeaf(1024, os::pte::writableBit));
    for (std::uint64_t i : {std::uint64_t(0), std::uint64_t(1),
                            std::uint64_t(511)}) {
        os::pte::Entry e = pt.readPte(hugeWin + (i << pageShift));
        EXPECT_TRUE(os::pte::isPresent(e));
        EXPECT_TRUE(os::pte::isHugeLeaf(e));
        EXPECT_EQ(os::pte::pfnOf(e), 1024 + i);
    }
    // The next window is untouched.
    EXPECT_EQ(pt.readPte(hugeWin + (pmdLeafPages << pageShift)), 0u);
}

TEST(HugePageTable, SplitRevivesPer4kEntries)
{
    os::PageTable pt;
    pt.writeHugeLeaf(hugeWin,
                     os::pte::makeHugeLeaf(2048, os::pte::writableBit));
    pt.splitHugeLeaf(hugeWin);
    EXPECT_FALSE(pt.hugeLeafRef(hugeWin, false).valid() &&
                 os::pte::isHugeLeaf(
                     pt.hugeLeafRef(hugeWin, false).value()));
    for (std::uint64_t i = 0; i < pmdLeafPages; i += 37) {
        os::pte::Entry e = pt.readPte(hugeWin + (i << pageShift));
        EXPECT_TRUE(os::pte::isPresent(e));
        EXPECT_FALSE(os::pte::isHugeLeaf(e));
        EXPECT_EQ(os::pte::pfnOf(e), 2048 + i);
    }
}

TEST(HugePageTable, ForEachHugeLeafVisitsOnlyLeaves)
{
    os::PageTable pt;
    pt.writeHugeLeaf(hugeWin, os::pte::makeHugeLeaf(512, 0));
    // A plain 4 KB mapping two windows up must not be reported.
    pt.writePte(hugeWin + 2 * (pmdLeafPages << pageShift),
                os::pte::makePresent(7, 0));
    unsigned leaves = 0;
    VAddr seen = 0;
    pt.forEachHugeLeaf(hugeWin,
                       hugeWin + 4 * (pmdLeafPages << pageShift),
                       [&](VAddr va, os::EntryRef) {
                           ++leaves;
                           seen = va;
                       });
    EXPECT_EQ(leaves, 1u);
    EXPECT_EQ(seen, hugeWin);
}

// ---- TLB reach -----------------------------------------------------------

TEST(HugeTlb, WideEntryCoversItsWholeWindow)
{
    cpu::Tlb tlb(64, 1536, 8, 8, true);
    tlb.insert(hugeWin, 4096, pmdLeafShift);
    for (std::uint64_t i : {std::uint64_t(0), std::uint64_t(3),
                            std::uint64_t(511)}) {
        auto r = tlb.lookup(hugeWin + (i << pageShift) + 0x10);
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.pfn, 4096 + i);
    }
    EXPECT_GT(tlb.wideHits(), 0u);
    // One entry past the window misses.
    EXPECT_FALSE(tlb.lookup(hugeWin + (pmdLeafPages << pageShift)).hit);
}

TEST(HugeTlb, NapotEntryHasSixteenPageReach)
{
    cpu::Tlb tlb(64, 1536, 8, 8, true);
    tlb.insert(hugeWin, 160, napotShift);
    EXPECT_TRUE(tlb.lookup(hugeWin + 15 * pageSize).hit);
    EXPECT_EQ(tlb.lookup(hugeWin + 15 * pageSize).pfn, 160u + 15u);
    EXPECT_FALSE(tlb.lookup(hugeWin + 16 * pageSize).hit);
}

TEST(HugeTlb, InvalidateRangeKillsLatchedVpnInsideIt)
{
    cpu::Tlb tlb(64, 1536, 8, 8, true);
    // Latch a plain 4 KB VPN in the middle of the window...
    tlb.insert(hugeWin + 5 * pageSize, 9001);
    ASSERT_TRUE(tlb.lookup(hugeWin + 5 * pageSize).hit);
    // ...then shoot down the whole 2 MB range (a promotion): the
    // latched 4 KB translation inside it must die with the arrays.
    tlb.invalidateRange(hugeWin, pmdLeafPages);
    EXPECT_FALSE(tlb.lookup(hugeWin + 5 * pageSize).hit);
}

TEST(HugeTlb, RangeShootdownRemovesWideEntry)
{
    cpu::Tlb tlb(64, 1536, 8, 8, true);
    tlb.insert(hugeWin, 4096, pmdLeafShift);
    ASSERT_TRUE(tlb.lookup(hugeWin + 7 * pageSize).hit);
    // A demotion invalidates the window; the wide entry must go even
    // though the invalidation starts mid-window.
    tlb.invalidateRange(hugeWin + 4 * pageSize, 1);
    EXPECT_FALSE(tlb.lookup(hugeWin + 7 * pageSize).hit);
}

// ---- Contiguous frame allocation ----------------------------------------

TEST(HugePhysMem, AllocContigReturnsAlignedRun)
{
    sim::EventQueue eq;
    mem::PhysMem pm(eq, 2048);
    Pfn head = pm.allocContig(0, 9);
    ASSERT_NE(head, mem::PhysMem::invalidPfn);
    EXPECT_EQ(head % pmdLeafPages, 0u);
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
        EXPECT_TRUE(pm.isAllocated(head + i));
}

TEST(HugePhysMem, SingleFrameAllocSkipsClaimedRun)
{
    sim::EventQueue eq;
    mem::PhysMem pm(eq, 1024);
    Pfn head = pm.allocContig(0, 9);
    ASSERT_NE(head, mem::PhysMem::invalidPfn);
    // Every remaining single-frame allocation must skip the claimed
    // window (stale free-list entries are dropped lazily).
    for (int i = 0; i < 400; ++i) {
        Pfn f = pm.alloc();
        ASSERT_NE(f, mem::PhysMem::invalidPfn);
        EXPECT_TRUE(f < head || f >= head + pmdLeafPages);
    }
}

TEST(HugePhysMem, AllocContigFailsCleanlyWhenFragmented)
{
    sim::EventQueue eq;
    mem::PhysMem pm(eq, 1024);
    // Poke a hole in every aligned 512-frame window.
    std::vector<Pfn> singles;
    for (int i = 0; i < 1024; ++i)
        singles.push_back(pm.alloc());
    pm.free(singles[3]); // one free frame only
    EXPECT_EQ(pm.allocContig(0, 9), mem::PhysMem::invalidPfn);
    EXPECT_EQ(pm.alloc(), singles[3]);
}

// ---- Whole-machine runs --------------------------------------------------

namespace {

system::MachineConfig
pageModeConfig(system::PagingMode mode, PageMode pm,
               std::uint64_t mem_frames = 32 * 1024)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = mem_frames;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.pageMode = pm;
    return cfg;
}

struct RunResult
{
    std::string stats;
    std::uint64_t stateHash = 0;
    ht::MachineState state;
};

/** Run FIO ('I') or YCSB-A ('A') to completion and capture the end. */
RunResult
runWorkload(const system::MachineConfig &cfg, char wl,
            bool sequential = false, std::uint64_t ops = 1500)
{
    system::System sys(cfg);
    std::unique_ptr<workloads::KvStore> store;
    if (wl == 'I') {
        auto mf = sys.mapDataset("f", 8 * 1024);
        auto *w = sys.makeWorkload<workloads::FioWorkload>(
            mf.vma, ops, 300, sequential);
        sys.addThread(*w, 0, *mf.as);
    } else {
        auto mf = sys.mapDataset("data", 16 * 1024);
        auto *wal = sys.createFile("wal", 8 * 1024);
        store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                     16 * 1024);
        auto *w = sys.makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                            ops);
        sys.addThread(*w, 0, *mf.as);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    RunResult r;
    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    r.stats = os.str();
    r.state = ht::snapshot(sys, system::pageModeName(cfg.pageMode));
    r.stateHash = r.state.stateHash;
    return r;
}

} // namespace

TEST(HugeMachine, ThpMachineAllocatesWideUnitsAndReclaimsThem)
{
    // Random FIO over a dataset twice the DRAM: THP fault allocation
    // fills memory with 2 MB units, then reclaim takes whole clean
    // units back. The wide-entry audits run inside checkInvariants.
    auto cfg = pageModeConfig(system::PagingMode::osdp, PageMode::thp,
                              8 * 1024);
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2500);
    sys.addThread(*w, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));

    EXPECT_GT(sys.kernel().thpFaults(), 0u);
    EXPECT_GT(sys.totalTlbWideHits(), 0u);
    EXPECT_GT(sys.kernel().hugeReclaims(), 0u);

    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(HugeMachine, NapotMachinePromotesDemandPagedRuns)
{
    // Sequential FIO on an hwdp machine: demand-paged 4 KB frames land
    // contiguously and complete 16-page windows get the NAPOT stamp at
    // install time — the SMU keeps its 4 KB fault granularity.
    auto cfg = pageModeConfig(system::PagingMode::hwdp, PageMode::napot);
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000,
                                                       300, true);
    sys.addThread(*w, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));

    EXPECT_GT(sys.kernel().napotPromotions(), 0u);
    EXPECT_EQ(sys.kernel().thpFaults(), 0u); // napot mode: no 2 MB

    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(HugeMachine, CoalesceMachinePromotesInBackground)
{
    auto cfg = pageModeConfig(system::PagingMode::hwdp,
                              PageMode::coalesce);
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 16 * 1024);
    auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000,
                                                       300, true);
    sys.addThread(*w, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    // Let the daemon finish its sweep of what the workload laid down.
    sys.runFor(milliseconds(40.0));

    ASSERT_NE(sys.kcoalesced(), nullptr);
    EXPECT_GT(sys.kcoalesced()->windowsScanned(), 0u);
    EXPECT_GT(sys.kcoalesced()->windowsPromoted(), 0u);
    EXPECT_EQ(sys.kcoalesced()->windowsPromoted(),
              sys.kernel().hugePromotions());

    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
}

TEST(HugeMachine, DescribePrintsPageModeOnlyWhenOn)
{
    auto off = pageModeConfig(system::PagingMode::hwdp, PageMode::off);
    EXPECT_EQ(off.describe().find("page mode"), std::string::npos);
    auto co = pageModeConfig(system::PagingMode::hwdp,
                             PageMode::coalesce);
    EXPECT_NE(co.describe().find("page mode"), std::string::npos);
    EXPECT_NE(co.describe().find("kcoalesced"), std::string::npos);
    // Distinct shapes bind to distinct checkpoint config hashes.
    EXPECT_NE(system::Checkpoint::configHash(off),
              system::Checkpoint::configHash(co));
}

// ---- pageMode=off bit identity ------------------------------------------

TEST(HugeIdentity, OffModeIsByteIdenticalToSeedConfig)
{
    // A config that never mentions pageMode and one that sets it to
    // off explicitly must be the same machine, byte for byte, on both
    // workloads.
    for (char wl : {'I', 'A'}) {
        SCOPED_TRACE(wl);
        auto seed = pageModeConfig(system::PagingMode::hwdp,
                                   PageMode::off);
        system::MachineConfig untouched = seed;
        auto a = runWorkload(seed, wl);
        auto b = runWorkload(untouched, wl);
        EXPECT_EQ(a.stats, b.stats);
        EXPECT_EQ(a.stateHash, b.stateHash);
        ASSERT_FALSE(a.stats.empty());
        // No translation-reach counters may leak into the off dump.
        for (const char *name :
             {"thp_faults", "napot_promotions", "napot_breaks",
              "huge_promotions", "huge_splits", "huge_reclaims",
              "wide_hits", "wide_shootdowns_delayed", "kcoalesced."})
            EXPECT_EQ(a.stats.find(name), std::string::npos) << name;
    }
}

// ---- Cross-mode user-visible data ---------------------------------------

TEST(HugeIdentity, UserDataMatchesOffAcrossModesAndWorkloads)
{
    for (auto paging :
         {system::PagingMode::osdp, system::PagingMode::hwdp,
          system::PagingMode::swsmu}) {
        for (char wl : {'I', 'A'}) {
            auto base = runWorkload(
                pageModeConfig(paging, PageMode::off), wl);
            for (auto pm : {PageMode::thp, PageMode::napot,
                            PageMode::coalesce}) {
                SCOPED_TRACE(std::string(pagingModeName(paging)) + "/" +
                             wl + "/" + system::pageModeName(pm));
                auto r = runWorkload(pageModeConfig(paging, pm), wl);
                ht::DiffOptions opt;
                opt.userDataOnly = true;
                auto d = ht::diff(r.state, base.state, opt);
                EXPECT_TRUE(d.equivalent) << d.report;
            }
        }
    }
}

// ---- Checkpoints with wide PTEs live ------------------------------------

TEST(HugeCheckpoint, RoundTripWithWidePtesLive)
{
    auto cfg = pageModeConfig(system::PagingMode::osdp, PageMode::thp);
    auto boot = [&] {
        auto sys = std::make_unique<system::System>(cfg);
        auto mf = sys->mapDataset("f", 8 * 1024);
        auto *w = sys->makeWorkload<workloads::FioWorkload>(mf.vma, 900);
        sys->addThread(*w, 0, *mf.as);
        return std::make_pair(std::move(sys), mf);
    };
    auto finish = [](system::System &sys,
                     system::System::MappedFile &mf) {
        auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 700);
        sys.addThread(*w, 0, *mf.as);
        EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
        ht::quiesce(sys);
        auto inv = ht::checkInvariants(sys);
        EXPECT_TRUE(inv.empty()) << inv.front();
        std::ostringstream os;
        ht::dumpMachineStats(sys, os);
        return os.str();
    };

    auto [a, mfa] = boot();
    ASSERT_TRUE(a->runUntilThreadsDone(seconds(30.0)));
    // Wide PTEs must actually be live in the blob for this to test
    // anything.
    ASSERT_GT(a->kernel().thpFaults(), 0u);
    auto blob = system::Checkpoint::save(*a);
    a->resumeKthreads();
    std::string statsA = finish(*a, mfa);

    auto [b, mfb] = boot();
    system::Checkpoint::restore(*b, blob);
    auto inv0 = ht::checkInvariants(*b);
    EXPECT_TRUE(inv0.empty()) << inv0.front();
    EXPECT_GT(b->kernel().thpFaults(), 0u);
    b->resumeKthreads();
    std::string statsB = finish(*b, mfb);

    ASSERT_FALSE(statsA.empty());
    EXPECT_EQ(statsA, statsB);
}

TEST(HugeCheckpoint, RejectsVersionOneBlob)
{
    auto cfg = pageModeConfig(system::PagingMode::hwdp, PageMode::off);
    system::System a(cfg);
    auto mf = a.mapDataset("f", 4 * 1024);
    auto *w = a.makeWorkload<workloads::FioWorkload>(mf.vma, 300);
    a.addThread(*w, 0, *mf.as);
    ASSERT_TRUE(a.runUntilThreadsDone(seconds(30.0)));
    auto blob = system::Checkpoint::save(a);

    // Rewrite the header's version word to the pre-huge-page format.
    ASSERT_GE(blob.size(), 8u);
    blob[4] = 1;
    blob[5] = blob[6] = blob[7] = 0;

    system::System b(cfg);
    b.mapDataset("f", 4 * 1024);
    try {
        system::Checkpoint::restore(b, blob);
        FAIL() << "version-1 blob accepted";
    } catch (const sim::SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}
