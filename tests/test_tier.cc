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

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
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

// ---- Differential: the flat frame map against a std::map model ------------

namespace {

/**
 * Reference model: the frame map as one std::map node per frame keyed
 * by (device << 48 | LBA), the layout CxlBuffer had before its flat
 * per-device chunks. Same operations, same clock order, same counters
 * and the same checkpoint bytes.
 */
class RefCxlBuffer
{
  public:
    explicit RefCxlBuffer(const tier::CxlBuffer::Params &p) : prm(p) {}

    std::function<void()> pressureHook;
    std::function<bool()> loadErrorHook;
    std::function<bool()> fullWindowHook;

    std::uint64_t hits = 0, misses = 0, admits = 0, rejects = 0,
                  evictClean = 0, evictDirty = 0, absorbed = 0,
                  loadErrors = 0, highWater = 0;

    tier::CxlBuffer::LoadResult
    tryLoad(unsigned dev, Lba lba)
    {
        auto it = entries.find(key(dev, lba));
        if (it == entries.end()) {
            ++misses;
            return {};
        }
        if (loadErrorHook && loadErrorHook()) {
            ++loadErrors;
            if (!it->second.dirty && !it->second.writing) {
                entries.erase(it);
                ++misses;
                return {};
            }
            it->second.referenced = true;
            ++hits;
            return {true, 2 * prm.load4k()};
        }
        it->second.referenced = true;
        ++hits;
        return {true, prm.load4k()};
    }

    bool
    admit(unsigned dev, Lba lba, bool dirty)
    {
        auto it = entries.find(key(dev, lba));
        if (it != entries.end()) {
            it->second.referenced = true;
            it->second.dirty = it->second.dirty || dirty;
            return true;
        }
        if (entries.size() >= prm.frames ||
            (fullWindowHook && fullWindowHook())) {
            ++rejects;
            if (pressureHook)
                pressureHook();
            return false;
        }
        entries.emplace(key(dev, lba), Entry{dirty, true, false});
        highWater = std::max<std::uint64_t>(highWater, entries.size());
        ++admits;
        if (static_cast<double>(entries.size()) >
                prm.highWatermarkFrac * static_cast<double>(prm.frames) &&
            pressureHook)
            pressureHook();
        return true;
    }

    bool
    absorbWrite(unsigned dev, Lba lba, Tick *latency)
    {
        auto it = entries.find(key(dev, lba));
        if (it == entries.end())
            return false;
        it->second.dirty = true;
        it->second.referenced = true;
        *latency = prm.store4k();
        ++absorbed;
        return true;
    }

    bool contains(unsigned dev, Lba lba) const
    {
        return entries.count(key(dev, lba)) != 0;
    }
    void invalidate(unsigned dev, Lba lba) { entries.erase(key(dev, lba)); }
    std::uint64_t occupancy() const { return entries.size(); }

    tier::CxlBuffer::Victim
    pickVictim()
    {
        if (entries.empty())
            return {};
        std::size_t budget = entries.size();
        auto it = entries.lower_bound(clockCursor);
        while (budget-- > 0) {
            if (it == entries.end())
                it = entries.begin();
            if (it->second.writing) {
                ++it;
            } else if (it->second.referenced) {
                it->second.referenced = false;
                ++it;
            } else {
                clockCursor = it->first + 1;
                return {true, devOf(it->first), lbaOf(it->first),
                        it->second.dirty};
            }
            if (it != entries.end())
                clockCursor = it->first;
        }
        return {};
    }

    void
    dropClean(unsigned dev, Lba lba)
    {
        auto it = entries.find(key(dev, lba));
        if (it == entries.end() || it->second.dirty || it->second.writing)
            panic("ref: dropClean on a missing/dirty/writing frame");
        entries.erase(it);
        ++evictClean;
    }

    void
    beginWriteback(unsigned dev, Lba lba)
    {
        auto it = entries.find(key(dev, lba));
        if (it == entries.end() || !it->second.dirty || it->second.writing)
            panic("ref: beginWriteback on a missing/clean/writing frame");
        it->second.dirty = false;
        it->second.writing = true;
    }

    void
    finishWriteback(unsigned dev, Lba lba)
    {
        auto it = entries.find(key(dev, lba));
        if (it == entries.end() || !it->second.writing)
            panic("ref: finishWriteback on a missing/idle frame");
        it->second.writing = false;
        ++evictDirty;
        if (!it->second.dirty)
            entries.erase(it);
    }

    void
    forEachEntry(const std::function<void(unsigned, Lba, bool)> &fn) const
    {
        for (const auto &[k, e] : entries)
            fn(devOf(k), lbaOf(k), e.dirty);
    }

    /** CxlBuffer::serialize's layout. */
    void
    serialize(sim::Serializer &s)
    {
        s.section("cxl_buffer");
        s.check(prm.frames, "tier capacity");
        std::vector<std::uint64_t> keys;
        std::vector<std::uint8_t> flags;
        if (s.saving()) {
            for (const auto &[k, e] : entries) {
                if (e.writing)
                    throw sim::SerializeError("ref: frame under writeback");
                keys.push_back(k);
                flags.push_back(static_cast<std::uint8_t>(
                    (e.dirty << 0) | (e.referenced << 1)));
            }
        }
        s.io(keys);
        s.io(flags);
        if (s.loading()) {
            entries.clear();
            for (std::size_t i = 0; i < keys.size(); ++i)
                entries.emplace(keys[i], Entry{(flags[i] & 1) != 0,
                                               (flags[i] & 2) != 0, false});
        }
        s.io(clockCursor);
    }

  private:
    struct Entry
    {
        bool dirty = false;
        bool referenced = false;
        bool writing = false;
    };

    tier::CxlBuffer::Params prm;
    std::map<std::uint64_t, Entry> entries;
    std::uint64_t clockCursor = 0;

    static std::uint64_t key(unsigned dev, Lba lba)
    {
        return (static_cast<std::uint64_t>(dev) << 48) | lba;
    }
    static unsigned devOf(std::uint64_t k)
    {
        return static_cast<unsigned>(k >> 48);
    }
    static Lba lbaOf(std::uint64_t k)
    {
        return k & ((std::uint64_t(1) << 48) - 1);
    }
};

using Frames = std::vector<std::tuple<unsigned, Lba, bool>>;

template <typename Buf>
Frames
framesOf(const Buf &b)
{
    Frames f;
    b.forEachEntry([&](unsigned dev, Lba lba, bool dirty) {
        f.emplace_back(dev, lba, dirty);
    });
    return f;
}

/** The serialize() bytes, or empty when the save refuses. */
template <typename Buf>
std::vector<std::uint8_t>
blobOf(Buf &b)
{
    sim::Serializer s = sim::Serializer::saver();
    try {
        b.serialize(s);
    } catch (const sim::SerializeError &) {
        return {};
    }
    return s.takeBlob();
}

} // namespace

TEST(TierUnit, FlatFrameMapMatchesStdMapReference)
{
    // Seeded mixes of every buffer operation, hooks firing, over LBAs
    // that span several chunks of two devices — including the last
    // LBA of device 0, whose successor key is device 1's LBA 0 — with
    // a capacity small enough to reject and evict. After every step
    // the return values, counters, occupancy, key-order walk and
    // checkpoint bytes must agree with the std::map model; every so
    // often both round-trip through their checkpoint.
    const Lba lbaMax = (Lba(1) << 48) - 1;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        tier::CxlBuffer::Params p = smallParams(160);
        sim::EventQueue eq;
        tier::CxlBuffer buf("tier", eq, p);
        RefCxlBuffer ref(p);
        sim::Rng rng(seed);
        bool loadError = false, fullWindow = false;
        unsigned kicks = 0, refKicks = 0;
        buf.setLoadErrorHook([&] { return loadError; });
        buf.setFullWindowHook([&] { return fullWindow; });
        buf.setPressureHook([&] { ++kicks; });
        ref.loadErrorHook = [&] { return loadError; };
        ref.fullWindowHook = [&] { return fullWindow; };
        ref.pressureHook = [&] { ++refKicks; };

        // Half the keys come from a hot window across the boundary of
        // the first two chunks, so frames are hit, absorbed and
        // evicted as well as admitted.
        auto drawKey = [&]() -> std::pair<unsigned, Lba> {
            const auto dev = static_cast<unsigned>(rng.range(2));
            switch (rng.range(10)) {
              case 0:
                return {dev, lbaMax - rng.range(3)};
              case 1:
                return {dev, (Lba(1) << 40) + rng.range(2048)};
              case 2:
              case 3:
              case 4:
                return {dev, rng.range(4096)};
              default:
                return {dev, 900 + rng.range(250)};
            }
        };
        std::vector<std::pair<unsigned, Lba>> writing;
        for (int step = 0; step < 6000; ++step) {
            loadError = rng.chance(0.1);
            fullWindow = rng.chance(0.05);
            auto [dev, lba] = drawKey();
            // Admits outnumber evictions, so the buffer fills and
            // rejects at capacity too.
            switch (rng.range(16)) {
              case 0:
              case 1:
              case 2:
              case 3:
              case 4: {
                bool dirty = rng.chance(0.3);
                ASSERT_EQ(buf.admit(dev, lba, dirty),
                          ref.admit(dev, lba, dirty));
                break;
              }
              case 5:
              case 6:
              case 7:
              case 8: {
                auto a = buf.tryLoad(dev, lba);
                auto b = ref.tryLoad(dev, lba);
                ASSERT_EQ(a.hit, b.hit);
                ASSERT_EQ(a.latency, b.latency);
                break;
              }
              case 9: {
                Tick la = 0, lb = 0;
                ASSERT_EQ(buf.absorbWrite(dev, lba, &la),
                          ref.absorbWrite(dev, lba, &lb));
                ASSERT_EQ(la, lb);
                break;
              }
              case 10:
                buf.invalidate(dev, lba);
                ref.invalidate(dev, lba);
                std::erase(writing, std::make_pair(dev, lba));
                break;
              case 11: {
                auto a = buf.pickVictim();
                auto b = ref.pickVictim();
                ASSERT_EQ(a.valid, b.valid);
                ASSERT_EQ(a.dev, b.dev);
                ASSERT_EQ(a.lba, b.lba);
                ASSERT_EQ(a.dirty, b.dirty);
                if (!a.valid)
                    break;
                if (!a.dirty) {
                    buf.dropClean(a.dev, a.lba);
                    ref.dropClean(a.dev, a.lba);
                } else {
                    buf.beginWriteback(a.dev, a.lba);
                    ref.beginWriteback(a.dev, a.lba);
                    writing.emplace_back(a.dev, a.lba);
                }
                break;
              }
              case 12:
                if (!writing.empty()) {
                    auto at = rng.range(writing.size());
                    auto [wd, wl] = writing[at];
                    writing.erase(writing.begin() +
                                  static_cast<std::ptrdiff_t>(at));
                    buf.finishWriteback(wd, wl);
                    ref.finishWriteback(wd, wl);
                }
                break;
              case 13:
                // Misuse panics in both, before anything changes.
                if (!ref.contains(dev, lba)) {
                    ASSERT_THROW(buf.dropClean(dev, lba), PanicError);
                    ASSERT_THROW(ref.dropClean(dev, lba), PanicError);
                    ASSERT_THROW(buf.finishWriteback(dev, lba),
                                 PanicError);
                    ASSERT_THROW(ref.finishWriteback(dev, lba),
                                 PanicError);
                }
                break;
              default:
                if (writing.empty() && rng.chance(0.2)) {
                    // Checkpoint round trip into fresh buffers, which
                    // must then agree on the next clock victim.
                    const std::vector<std::uint8_t> blob = blobOf(buf);
                    ASSERT_FALSE(blob.empty());
                    tier::CxlBuffer fresh("tier", eq, p);
                    RefCxlBuffer refFresh(p);
                    sim::Serializer l = sim::Serializer::loader(blob);
                    fresh.serialize(l);
                    ASSERT_TRUE(l.exhausted());
                    sim::Serializer lr = sim::Serializer::loader(blob);
                    refFresh.serialize(lr);
                    ASSERT_EQ(fresh.occupancy(), buf.occupancy());
                    ASSERT_EQ(framesOf(fresh), framesOf(buf));
                    ASSERT_EQ(blobOf(fresh), blob);
                    auto a = fresh.pickVictim();
                    auto b = refFresh.pickVictim();
                    ASSERT_EQ(a.valid, b.valid);
                    ASSERT_EQ(a.dev, b.dev);
                    ASSERT_EQ(a.lba, b.lba);
                    ASSERT_EQ(blobOf(fresh), blobOf(refFresh));
                }
                break;
            }
            ASSERT_EQ(buf.occupancy(), ref.occupancy()) << "step " << step;
            ASSERT_EQ(kicks, refKicks) << "step " << step;
            ASSERT_EQ(buf.hits(), ref.hits);
            ASSERT_EQ(buf.misses(), ref.misses);
            ASSERT_EQ(buf.admits(), ref.admits);
            ASSERT_EQ(buf.admitRejects(), ref.rejects);
            ASSERT_EQ(buf.evictsClean(), ref.evictClean);
            ASSERT_EQ(buf.evictsDirty(), ref.evictDirty);
            ASSERT_EQ(buf.writesAbsorbed(), ref.absorbed);
            ASSERT_EQ(buf.loadErrors(), ref.loadErrors);
            ASSERT_EQ(buf.occupancyHighWater(), ref.highWater);
            ASSERT_EQ(framesOf(buf), framesOf(ref)) << "step " << step;
            ASSERT_EQ(blobOf(buf), blobOf(ref)) << "step " << step;
        }
        // The mix reached every path it is meant to cover.
        EXPECT_GT(buf.admitRejects(), 0u);
        EXPECT_GT(buf.evictsClean(), 0u);
        EXPECT_GT(buf.evictsDirty(), 0u);
        EXPECT_GT(buf.writesAbsorbed(), 0u);
        EXPECT_GT(buf.loadErrors(), 0u);
    }
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
