/**
 * @file
 * Tests for the LRU lists and page replacement.
 */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "system/system.hh"
#include "testing/invariants.hh"
#include "workloads/fio.hh"

using namespace hwdp;
using namespace hwdp::os;
namespace ht = hwdp::testing;

namespace {

Page
mkPage(Pfn pfn)
{
    Page p;
    p.pfn = pfn;
    p.inUse = true;
    return p;
}

system::MachineConfig
tinyConfig(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 2048;
    cfg.smu.freeQueueCapacity = 128;
    cfg.kpooldBatch = 128;
    return cfg;
}

/**
 * Reference model: the LRU lists as two std::lists plus a where-map,
 * the layout LruLists had before its links became PFN-indexed. Same
 * operations, same order and the same checkpoint bytes.
 */
class RefLru
{
  public:
    void insertInactive(Page &page) { insert(page, inactive); }
    void insertActive(Page &page) { insert(page, active); }

    void
    remove(Page &page)
    {
        auto it = where.find(page.pfn);
        it->second.list->erase(it->second.it);
        where.erase(it);
    }

    Pfn
    popCandidate()
    {
        if (inactive.empty()) {
            for (std::uint64_t i = 0;
                 i < LruLists::demoteBatch && !active.empty(); ++i) {
                Pfn pfn = active.back();
                active.pop_back();
                inactive.push_front(pfn);
                where[pfn] = Loc{&inactive, inactive.begin()};
            }
        }
        if (inactive.empty())
            return LruLists::invalidPfn;
        Pfn pfn = inactive.back();
        inactive.pop_back();
        where.erase(pfn);
        return pfn;
    }

    void
    secondChance(Page &page)
    {
        page.referenced = false;
        insert(page, active);
    }

    std::uint64_t activeCount() const { return active.size(); }
    std::uint64_t inactiveCount() const { return inactive.size(); }
    bool contains(Pfn pfn) const { return where.count(pfn) != 0; }

    bool
    isActive(Pfn pfn) const
    {
        auto it = where.find(pfn);
        return it != where.end() && it->second.list == &active;
    }

    /** Most recent first. */
    const std::list<Pfn> &
    order(bool act) const
    {
        return act ? active : inactive;
    }

    /**
     * Per list: the count, then the PFNs most recent first, each as a
     * 32-bit index.
     */
    void
    serialize(sim::Serializer &s)
    {
        s.section("lru");
        for (std::list<Pfn> *l : {&active, &inactive}) {
            std::uint64_t n = l->size();
            s.io(n);
            if (s.loading())
                l->resize(n);
            for (Pfn &pfn : *l) {
                auto idx = static_cast<std::uint32_t>(pfn);
                s.io(idx);
                pfn = idx;
            }
        }
        if (s.loading()) {
            where.clear();
            for (std::list<Pfn> *l : {&active, &inactive})
                for (auto it = l->begin(); it != l->end(); ++it)
                    where[*it] = Loc{l, it};
        }
    }

  private:
    struct Loc
    {
        std::list<Pfn> *list;
        std::list<Pfn>::iterator it;
    };

    std::list<Pfn> active;   // front = most recent
    std::list<Pfn> inactive; // front = most recent, evict from back
    std::unordered_map<Pfn, Loc> where;

    void
    insert(Page &page, std::list<Pfn> &l)
    {
        l.push_front(page.pfn);
        where[page.pfn] = Loc{&l, l.begin()};
    }
};

template <typename Lru>
std::vector<std::uint8_t>
blobOf(Lru &lru)
{
    sim::Serializer s = sim::Serializer::saver();
    lru.serialize(s);
    return s.takeBlob();
}

template <typename Lru>
void
load(Lru &lru, const std::vector<std::uint8_t> &blob)
{
    sim::Serializer s = sim::Serializer::loader(blob);
    lru.serialize(s);
    ASSERT_TRUE(s.exhausted());
}

/**
 * One seeded run of LruLists against RefLru over a few hundred PFNs.
 * Phases alternate between filling (mostly inserts) and draining
 * (mostly pops), so the inactive list runs dry with more and with
 * fewer than demoteBatch active pages behind it. After every step the
 * pop results, page flags, membership, counts and checkpoint bytes
 * must agree; halfway both sides round-trip through their blobs, the
 * LruLists one into a machine that already holds boot-time entries.
 */
void
runLruDifferential(std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr Pfn nPfns = 300;
    constexpr unsigned steps = 4000;
    std::vector<Page> mine, ref;
    for (Pfn p = 0; p < nPfns; ++p) {
        mine.push_back(mkPage(p));
        ref.push_back(mkPage(p));
    }
    auto lru = std::make_unique<LruLists>();
    auto oracle = std::make_unique<RefLru>();
    sim::Rng rng(seed);
    std::uint64_t pops = 0, fullBatches = 0, partialBatches = 0;

    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        bool draining = (step / 250) % 2 == 1;
        std::uint64_t op =
            rng.chance(draining ? 0.7 : 0.1) ? 0 : 1 + rng.range(4);
        Pfn pfn = rng.range(nPfns);
        if (op == 0) {
            // Pop, as the reclaimer does: a referenced page gets its
            // second chance.
            if (oracle->inactiveCount() == 0 && oracle->activeCount() > 0) {
                // This pop demotes a full or a partial batch first.
                ++(oracle->activeCount() >= LruLists::demoteBatch
                       ? fullBatches
                       : partialBatches);
            }
            Pfn want = oracle->popCandidate();
            ASSERT_EQ(lru->popCandidate(), want);
            if (want != LruLists::invalidPfn) {
                ++pops;
                if (rng.chance(0.3)) {
                    mine[want].referenced = ref[want].referenced = true;
                    lru->secondChance(mine[want]);
                    oracle->secondChance(ref[want]);
                }
            }
        } else if (op == 1 && lru->size() > 0) {
            // Remove the head, a middle page or the tail of a list.
            bool act = oracle->inactiveCount() == 0 ||
                       (oracle->activeCount() > 0 && rng.chance(0.5));
            const std::list<Pfn> &l = oracle->order(act);
            std::uint64_t at = rng.range(3);
            at = at == 0 ? 0 : at == 1 ? l.size() / 2 : l.size() - 1;
            Pfn victim = *std::next(l.begin(), static_cast<long>(at));
            lru->remove(mine[victim]);
            oracle->remove(ref[victim]);
        } else if (oracle->contains(pfn)) {
            lru->remove(mine[pfn]);
            oracle->remove(ref[pfn]);
        } else if (op == 2) {
            mine[pfn].referenced = ref[pfn].referenced = true;
            lru->secondChance(mine[pfn]);
            oracle->secondChance(ref[pfn]);
        } else if (op == 3) {
            lru->insertActive(mine[pfn]);
            oracle->insertActive(ref[pfn]);
        } else {
            lru->insertInactive(mine[pfn]);
            oracle->insertInactive(ref[pfn]);
        }

        if (step == steps / 2) {
            auto restored = std::make_unique<LruLists>(nPfns / 2);
            Page boot0 = mkPage(0), boot1 = mkPage(nPfns - 1);
            restored->insertActive(boot0);
            restored->insertInactive(boot1);
            load(*restored, blobOf(*lru));
            lru = std::move(restored);
            auto ref2 = std::make_unique<RefLru>();
            load(*ref2, blobOf(*oracle));
            oracle = std::move(ref2);
        }

        ASSERT_EQ(lru->activeCount(), oracle->activeCount());
        ASSERT_EQ(lru->inactiveCount(), oracle->inactiveCount());
        ASSERT_EQ(lru->size(),
                  oracle->activeCount() + oracle->inactiveCount());
        for (Pfn p = 0; p < nPfns; ++p) {
            ASSERT_EQ(lru->contains(p), oracle->contains(p)) << p;
            ASSERT_EQ(lru->isActive(p), oracle->isActive(p)) << p;
            ASSERT_EQ(mine[p].referenced, ref[p].referenced) << p;
        }
        ASSERT_EQ(blobOf(*lru), blobOf(*oracle));
    }
    // The mix must have reached every path it claims to cover.
    EXPECT_GT(pops, steps / 5);
    EXPECT_GT(fullBatches, 5u);
    EXPECT_GT(partialBatches, 5u);
}

} // namespace

TEST(LruLists, MatchesReferenceModelUnderRandomMixes)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 42u})
        runLruDifferential(seed);
}

TEST(LruLists, LoadRejectsARepeatedPfn)
{
    sim::Serializer s = sim::Serializer::saver();
    s.section("lru");
    std::uint64_t n = 1;
    Pfn pfn = 5;
    s.io(n); // active: [5]
    s.io(pfn);
    s.io(n); // inactive: [5]
    s.io(pfn);
    LruLists lru;
    const std::vector<std::uint8_t> blob = s.takeBlob();
    sim::Serializer in = sim::Serializer::loader(blob);
    EXPECT_THROW(lru.serialize(in), sim::SerializeError);
}

TEST(LruLists, InsertAndPopFifoFromInactive)
{
    LruLists lru;
    Page a = mkPage(1), b = mkPage(2), c = mkPage(3);
    lru.insertInactive(a);
    lru.insertInactive(b);
    lru.insertInactive(c);
    EXPECT_EQ(lru.inactiveCount(), 3u);
    // Eviction candidates come from the tail: oldest first.
    EXPECT_EQ(lru.popCandidate(), 1u);
    EXPECT_EQ(lru.popCandidate(), 2u);
    EXPECT_EQ(lru.popCandidate(), 3u);
    EXPECT_EQ(lru.popCandidate(), LruLists::invalidPfn);
}

TEST(LruLists, ActiveListRefillsInactive)
{
    LruLists lru;
    Page a = mkPage(1);
    lru.insertActive(a);
    EXPECT_EQ(lru.activeCount(), 1u);
    // popCandidate demotes from active when inactive is empty.
    EXPECT_EQ(lru.popCandidate(), 1u);
}

TEST(LruLists, RemoveFromMiddle)
{
    LruLists lru;
    Page a = mkPage(1), b = mkPage(2), c = mkPage(3);
    lru.insertInactive(a);
    lru.insertInactive(b);
    lru.insertInactive(c);
    lru.remove(b);
    EXPECT_FALSE(lru.contains(2));
    EXPECT_EQ(lru.popCandidate(), 1u);
    EXPECT_EQ(lru.popCandidate(), 3u);
}

TEST(LruLists, DoubleInsertPanics)
{
    LruLists lru;
    Page a = mkPage(1);
    lru.insertInactive(a);
    EXPECT_THROW(lru.insertInactive(a), PanicError);
}

TEST(LruLists, RemoveUnlinkedPanics)
{
    LruLists lru;
    Page a = mkPage(1);
    EXPECT_THROW(lru.remove(a), PanicError);
}

TEST(LruLists, SecondChancePromotesToActive)
{
    LruLists lru;
    Page a = mkPage(1);
    lru.insertInactive(a);
    Pfn p = lru.popCandidate();
    a.referenced = true;
    lru.secondChance(a);
    EXPECT_FALSE(a.referenced);
    EXPECT_TRUE(lru.isActive(1));
    EXPECT_EQ(lru.activeCount(), 1u);
    (void)p;
}

TEST(Reclaim, SteadyStateEvictionKeepsMachineRunning)
{
    // Dataset 4x memory: completion requires continuous replacement.
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 8192);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 4000);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    EXPECT_GT(sys.kernel().reclaimer().pagesEvicted(), 1000u);
    // Memory never over-committed.
    auto &pm = sys.physMem();
    EXPECT_EQ(pm.allocatedFrames() + pm.freeFrames() + pm.reservedCount(),
              pm.totalFrames());
}

TEST(Reclaim, InvariantsAuditLruMembership)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 8192);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 2000);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    EXPECT_TRUE(ht::checkInvariants(sys).empty());

    // A frame on the LRU that is also flagged as donated to a free
    // page queue is reported.
    auto &k = sys.kernel();
    ASSERT_GT(k.reclaimer().lru().size(), 0u);
    Pfn pfn = 0;
    while (!k.reclaimer().lru().contains(pfn))
        ++pfn;
    k.page(pfn).inSmuQueue = true;
    auto v = ht::checkInvariants(sys);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("inSmuQueue and on an LRU list"),
              std::string::npos)
        << v[0];
    k.page(pfn).inSmuQueue = false;
    EXPECT_TRUE(ht::checkInvariants(sys).empty());
}

TEST(Reclaim, HwdpEvictionRearmsLbaPtes)
{
    system::System sys(tinyConfig(system::PagingMode::hwdp));
    auto mf = sys.mapDataset("f", 8192);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 4000);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(20.0)));
    // Evictions wrote LBA-augmented PTEs (the rmap counter).
    EXPECT_GT(sys.kernel().rmap().evictionsToLba(), 1000u);
    EXPECT_EQ(sys.kernel().rmap().evictionsPlain(), 0u);
}

TEST(Reclaim, DirtyPagesAreWrittenBackBeforeReuse)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &k = sys.kernel();
    auto mf = sys.mapDataset("f", 8192);

    // Touch pages with writes so evicted pages are dirty.
    struct WriteLoad : workloads::Workload
    {
        os::Vma *vma;
        std::uint64_t n = 0;
        explicit WriteLoad(os::Vma *vma) : vma(vma) {}
        workloads::Op
        next(sim::Rng &rng) override
        {
            if (n++ >= 3000)
                return workloads::Op::makeDone();
            VAddr a = vma->start + rng.range(vma->numPages()) * pageSize;
            return workloads::Op::makeMem(a, true, true);
        }
        const char *label() const override { return "writeload"; }
    };
    auto *wl = sys.makeWorkload<WriteLoad>(mf.vma);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    EXPECT_GT(k.reclaimer().pagesWrittenBack(), 100u);
    EXPECT_GT(sys.ssd().writesCompleted(), 100u);
}

TEST(Reclaim, ReferencedPagesGetSecondChance)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto mf = sys.mapDataset("f", 8192);

    // A load with a strong hot set: hot pages must survive eviction.
    struct SkewLoad : workloads::Workload
    {
        os::Vma *vma;
        std::uint64_t n = 0;
        explicit SkewLoad(os::Vma *vma) : vma(vma) {}
        workloads::Op
        next(sim::Rng &rng) override
        {
            if (n++ >= 6000)
                return workloads::Op::makeDone();
            // 60% of accesses to 16 hot pages, rest uniform.
            std::uint64_t page = rng.chance(0.6)
                                     ? rng.range(16)
                                     : rng.range(vma->numPages());
            return workloads::Op::makeMem(vma->start + page * pageSize,
                                          false, true);
        }
        const char *label() const override { return "skew"; }
    };
    auto *wl = sys.makeWorkload<SkewLoad>(mf.vma);
    auto *tc = sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));

    // The hot pages should be resident at the end despite heavy churn.
    int resident = 0;
    for (int i = 0; i < 16; ++i) {
        if (os::pte::isPresent(
                mf.as->pageTable().readPte(mf.vma->start + i * pageSize)))
            ++resident;
    }
    EXPECT_GE(resident, 12);
    (void)tc;
}

TEST(Reclaim, WatermarksComeFromConfig)
{
    system::System sys(tinyConfig(system::PagingMode::osdp));
    auto &r = sys.kernel().reclaimer();
    EXPECT_GT(r.highWatermark(), r.lowWatermark());
}
