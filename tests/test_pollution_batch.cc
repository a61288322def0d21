/**
 * @file
 * Bit-identity of the batched pollution engine against the per-line
 * reference path, at three levels: the cache-array batch API under
 * randomized and adversarial (set-colliding, aliasing) runs, the
 * level-major hierarchy descent, the bulk RNG / branch-predictor
 * streams, and whole-machine differential runs with pollution
 * batching toggled — clean and under an injected fault plan.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "mem/branch_predictor.hh"
#include "mem/cache_array.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
using namespace hwdp::mem;
namespace ht = hwdp::testing;

namespace {

/** Drive one run through both paths and require identical everything. */
void
expectBatchMatchesPerLine(CacheArray &batch, CacheArray &ref,
                          const std::vector<std::uint64_t> &run)
{
    std::vector<std::uint64_t> miss_out(run.size() + 1, 0xdead);
    std::vector<std::uint64_t> bitmap((run.size() + 63) / 64 + 1,
                                      0xdead);
    std::size_t hits = batch.accessBatch(run.data(), run.size(),
                                         miss_out.data(), bitmap.data());

    std::size_t ref_hits = 0;
    std::vector<std::uint64_t> ref_miss;
    std::vector<std::uint64_t> ref_bitmap((run.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < run.size(); ++i) {
        if (ref.access(run[i])) {
            ++ref_hits;
            ref_bitmap[i / 64] |= std::uint64_t(1) << (i % 64);
        } else {
            ref_miss.push_back(run[i]);
        }
    }

    ASSERT_EQ(hits, ref_hits);
    ASSERT_EQ(batch.hitCount(), ref.hitCount());
    ASSERT_EQ(batch.missCount(), ref.missCount());
    ASSERT_EQ(batch.occupancy(), ref.occupancy());
    // Full post-state: every tag and every LRU stamp.
    ASSERT_EQ(batch.rawMeta(), ref.rawMeta());
    // Miss list: the missing addresses, compacted, in run order. (The
    // branchless compactor may scribble one slot past the last miss —
    // the contract requires n words of room — so only the compacted
    // prefix is meaningful.)
    for (std::size_t m = 0; m < ref_miss.size(); ++m)
        ASSERT_EQ(miss_out[m], ref_miss[m]) << "miss slot " << m;
    for (std::size_t w = 0; w < ref_bitmap.size(); ++w)
        ASSERT_EQ(bitmap[w], ref_bitmap[w]) << "bitmap word " << w;
}

} // namespace

TEST(PollutionBatch, FuzzRandomRunsAllGeometries)
{
    struct Geo
    {
        std::uint64_t bytes;
        unsigned assoc;
    };
    // The paper machine's L1/L2/LLC geometries plus a narrow oddball.
    const Geo geos[] = {
        {32 * 1024, 8},
        {256 * 1024, 8},
        {20 * 64 * 1024, 20}, // LLC associativity, 1024 sets
        {4096, 4}};
    for (const Geo &g : geos) {
        CacheArray batch("b", g.bytes, g.assoc);
        CacheArray ref("r", g.bytes, g.assoc);
        sim::Rng rng(0xf005ba11 + g.assoc);
        for (int round = 0; round < 40; ++round) {
            std::size_t len = 1 + rng.range(200);
            std::vector<std::uint64_t> run;
            // Confine the rounds to few sets/tags so runs collide in
            // sets, repeat lines, and alias tags heavily.
            std::uint64_t tags = 1 + rng.range(3 * g.assoc);
            std::uint64_t sets = 1 + rng.range(8);
            for (std::size_t i = 0; i < len; ++i) {
                std::uint64_t set = rng.range(sets);
                std::uint64_t tag = rng.range(tags);
                run.push_back(tag * g.bytes / g.assoc + set * 64 +
                              rng.range(64));
            }
            expectBatchMatchesPerLine(batch, ref, run);
        }
    }
}

TEST(PollutionBatch, ForcedSingleSetCollisionRuns)
{
    // Every line in the run maps to one set; runs longer than the
    // associativity force evictions of lines installed earlier in the
    // same batch call, the case a reordering batcher would get wrong.
    CacheArray batch("b", 32 * 1024, 8);
    CacheArray ref("r", 32 * 1024, 8);
    std::uint64_t set_stride = batch.numSets() * batch.lineBytes();
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 20; ++i)
        run.push_back(static_cast<std::uint64_t>(i) * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);

    // Same line repeated back-to-back: the second access must hit the
    // installation made one position earlier in the same batch.
    run.assign(12, 7 * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);

    // Re-run the eviction pattern now that the set is full.
    run.clear();
    for (int i = 0; i < 20; ++i)
        run.push_back(static_cast<std::uint64_t>(19 - i) * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);

    // Eleven tags cycling through the 8-way set: each line comes back
    // after it was evicted earlier in the same call.
    run.clear();
    for (int i = 0; i < 20; ++i)
        run.push_back(static_cast<std::uint64_t>(i % 11) * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);
}

TEST(PollutionBatch, RenormalizationBoundariesPreserved)
{
    // 4 KB, 8-way: 8 sets, 6 + 3 = 9 stamp bits, so the LRU clock
    // saturates every 511 accesses. Long batches must renormalise at
    // the same access indices as the per-line walk — drive several
    // multiples of the period through both paths in one batch call.
    CacheArray batch("b", 4096, 8);
    CacheArray ref("r", 4096, 8);
    sim::Rng rng(42);
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 4000; ++i)
        run.push_back(rng.range(64) * 64);
    expectBatchMatchesPerLine(batch, ref, run);
    // And again from non-zero clock offsets.
    for (int rep = 0; rep < 3; ++rep) {
        run.clear();
        std::size_t len = 300 + rng.range(700);
        for (std::size_t i = 0; i < len; ++i)
            run.push_back(rng.range(80) * 64);
        expectBatchMatchesPerLine(batch, ref, run);
    }

    // 2 sets x 2 ways: stamps saturate every 127 accesses. Warm to just
    // below the boundary, walk across it with single-line batches (one
    // opens exactly on the boundary), then span several wraps in one
    // call. An empty batch must leave everything untouched.
    CacheArray tiny("b", 2 * 2 * 64, 2);
    CacheArray tiny_ref("r", 2 * 2 * 64, 2);
    run.clear();
    for (int i = 0; i < 120; ++i)
        run.push_back(rng.range(16) * 64);
    expectBatchMatchesPerLine(tiny, tiny_ref, run);
    for (int i = 0; i < 20; ++i)
        expectBatchMatchesPerLine(tiny, tiny_ref, {rng.range(16) * 64});
    run.clear();
    for (int i = 0; i < 400; ++i)
        run.push_back(rng.range(16) * 64);
    expectBatchMatchesPerLine(tiny, tiny_ref, run);
    expectBatchMatchesPerLine(tiny, tiny_ref, {});
}

TEST(PollutionBatch, HierarchyLevelMajorMatchesPerLine)
{
    CacheParams cp;
    cp.llcBytes = 20 * 64 * 1024; // 20-way, 1024 sets: test-sized
    CacheHierarchy batch(2, cp);
    CacheHierarchy ref(2, cp);
    sim::Rng rng(0xca11ab1e);

    for (int round = 0; round < 30; ++round) {
        unsigned core = static_cast<unsigned>(rng.range(2));
        bool is_inst = rng.chance(0.5);
        auto mode = rng.chance(0.5) ? ExecMode::kernel : ExecMode::user;
        std::size_t len = 1 + rng.range(300);
        std::vector<std::uint64_t> run;
        for (std::size_t i = 0; i < len; ++i)
            run.push_back(rng.range(4096) * 64);

        CacheBatchResult br =
            batch.accessBatch(core, run.data(), len, is_inst, mode);
        std::uint64_t l1m = 0, l2m = 0, llcm = 0;
        Cycles lat = 0;
        for (auto a : run) {
            CacheAccessResult r = ref.access(core, a, is_inst, mode);
            l1m += r.l1Miss;
            l2m += r.l2Miss;
            llcm += r.llcMiss;
            lat += r.latency;
        }
        ASSERT_EQ(br.l1Misses, l1m);
        ASSERT_EQ(br.l2Misses, l2m);
        ASSERT_EQ(br.llcMisses, llcm);
        ASSERT_EQ(br.totalLatency, lat);
        for (auto m : {ExecMode::user, ExecMode::kernel}) {
            const auto &bc = batch.counters(m);
            const auto &rc = ref.counters(m);
            ASSERT_EQ(bc.l1iAccesses, rc.l1iAccesses);
            ASSERT_EQ(bc.l1iMisses, rc.l1iMisses);
            ASSERT_EQ(bc.l1dAccesses, rc.l1dAccesses);
            ASSERT_EQ(bc.l1dMisses, rc.l1dMisses);
            ASSERT_EQ(bc.l2Misses, rc.l2Misses);
            ASSERT_EQ(bc.llcMisses, rc.llcMisses);
        }
    }
}

TEST(PollutionBatch, RngFillMatchesSequentialChance)
{
    for (std::uint64_t seed : {1ull, 0x9e3779b97f4a7c15ull, 777ull}) {
        for (double p : {0.5, 0.3, 0.999, 0.0, 1.0}) {
            for (std::size_t n : {std::size_t(0), std::size_t(1),
                                  std::size_t(7), std::size_t(64),
                                  std::size_t(1000)}) {
                sim::Rng a(seed);
                sim::Rng b(seed);
                std::vector<std::uint8_t> out(n + 1, 0xcc);
                a.fill(p, out.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(out[i] != 0, b.chance(p))
                        << "seed " << seed << " p " << p << " i " << i;
                ASSERT_EQ(out[n], 0xcc);
                // Final generator state must match too: the next draw
                // after a batch equals the next draw after n singles.
                ASSERT_EQ(a.next(), b.next());
            }
        }
    }
}

TEST(PollutionBatch, BranchUpdateBatchMatchesSequential)
{
    BranchPredictor batch;
    BranchPredictor ref;
    sim::Rng rng(314159);
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 1024; ++i)
        pcs.push_back(0xffffffff81000000ull + i * 16);

    for (int round = 0; round < 20; ++round) {
        // Cover n < n_pcs, n == n_pcs and several-wrap n > n_pcs.
        std::size_t n = 1 + rng.range(3000);
        std::vector<std::uint8_t> taken(n);
        rng.fill(0.5, taken.data(), n);
        auto mode = round % 2 ? ExecMode::kernel : ExecMode::user;

        std::uint64_t miss =
            batch.updateBatch(pcs.data(), pcs.size(), taken.data(), n,
                              mode);
        std::uint64_t ref_miss = 0;
        for (std::size_t i = 0; i < n; ++i)
            ref_miss += !ref.predictAndUpdate(pcs[i % pcs.size()],
                                              taken[i] != 0, mode);
        ASSERT_EQ(miss, ref_miss);
        for (auto m : {ExecMode::user, ExecMode::kernel}) {
            ASSERT_EQ(batch.lookups(m), ref.lookups(m));
            ASSERT_EQ(batch.mispredicts(m), ref.mispredicts(m));
        }
    }
    // The internal state (GHR + every PHT counter) must have tracked
    // exactly; a shared probe stream exposes any divergence.
    std::vector<std::uint8_t> probe(4096);
    sim::Rng prng(999);
    prng.fill(0.5, probe.data(), probe.size());
    std::uint64_t m1 = batch.updateBatch(pcs.data(), pcs.size(),
                                         probe.data(), probe.size(),
                                         ExecMode::user);
    std::uint64_t m2 = 0;
    for (std::size_t i = 0; i < probe.size(); ++i)
        m2 += !ref.predictAndUpdate(pcs[i % pcs.size()], probe[i] != 0,
                                    ExecMode::user);
    ASSERT_EQ(m1, m2);
}

namespace {

/** Whole-machine run with pollution batching on or off. */
std::string
runFioStats(system::PagingMode mode, bool pollution_batch,
            double fault_rate = 0.0)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.pollutionBatch = pollution_batch;

    system::System sys(cfg);
    ht::FaultPlan plan("plan", sys.eventQueue(), 97);
    auto mf = sys.mapDataset("f", 8 * 1024);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1200);
    sys.addThread(*wl, 0, *mf.as);
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);

    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    // Fold in the observability the stats dump does not cover: IPC,
    // branch outcomes and the pollution probe accounting.
    os << sys.aggregateUserIpc() << ' ' << sys.userBranchMispredicts()
       << ' ' << sys.userBranchLookups() << ' '
       << sys.kernel().kexec().totalPollutionProbes() << ' '
       << sys.kernel().kexec().totalPollutionBranchUpdates();
    return os.str();
}

std::string
runYcsbStats(system::PagingMode mode, bool pollution_batch,
             double fault_rate = 0.0)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.pollutionBatch = pollution_batch;

    system::System sys(cfg);
    ht::FaultPlan plan("plan", sys.eventQueue(), 101);
    auto mf = sys.mapDataset("data", 16 * 1024);
    auto *wal = sys.createFile("wal", 8 * 1024);
    auto store = std::make_unique<workloads::KvStore>(mf.vma, wal,
                                                      16 * 1024);
    auto *wl = sys.makeWorkload<workloads::YcsbWorkload>('A', *store,
                                                         1000);
    sys.addThread(*wl, 0, *mf.as);
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);

    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    os << sys.aggregateUserIpc() << ' ' << sys.userBranchMispredicts()
       << ' ' << sys.userBranchLookups() << ' '
       << sys.kernel().kexec().totalPollutionProbes() << ' '
       << sys.kernel().kexec().totalPollutionBranchUpdates();
    return os.str();
}

} // namespace

TEST(PollutionBatch, FioStatsDumpIdenticalBatchOnOffAllModes)
{
    for (auto mode :
         {system::PagingMode::osdp, system::PagingMode::hwdp,
          system::PagingMode::swsmu}) {
        std::string on = runFioStats(mode, true);
        std::string off = runFioStats(mode, false);
        EXPECT_EQ(on, off) << "mode " << pagingModeName(mode);
    }
}

TEST(PollutionBatch, FioStatsDumpIdenticalUnderFaultPlan)
{
    std::string on = runFioStats(system::PagingMode::hwdp, true, 0.01);
    std::string off = runFioStats(system::PagingMode::hwdp, false, 0.01);
    EXPECT_EQ(on, off);
}

TEST(PollutionBatch, YcsbStatsDumpIdenticalBatchOnOff)
{
    std::string on = runYcsbStats(system::PagingMode::hwdp, true);
    std::string off = runYcsbStats(system::PagingMode::hwdp, false);
    EXPECT_EQ(on, off);

    std::string on_f =
        runYcsbStats(system::PagingMode::swsmu, true, 0.01);
    std::string off_f =
        runYcsbStats(system::PagingMode::swsmu, false, 0.01);
    EXPECT_EQ(on_f, off_f);
}

TEST(PollutionBatch, GoldenStatsDumpHashes)
{
    // The on/off differentials above run both sides through the
    // shared scans, renormalisation and RNG mapping, so a change to
    // those moves both sides alike. These pins do not: FNV-1a of the
    // batched dumps as the per-line engine first produced them. A
    // host-speed change must leave them alone; a deliberate model
    // change updates them and says so.
    auto fnv1a = [](const std::string &s) {
        std::uint64_t h = 14695981039346656037ULL;
        for (unsigned char c : s)
            h = (h ^ c) * 1099511628211ULL;
        return h;
    };
    EXPECT_EQ(fnv1a(runFioStats(system::PagingMode::osdp, true)),
              0xda962dbdbe5d71eeULL);
    EXPECT_EQ(fnv1a(runFioStats(system::PagingMode::hwdp, true)),
              0x7685c0199b0b089bULL);
    EXPECT_EQ(fnv1a(runYcsbStats(system::PagingMode::hwdp, true)),
              0xb0c9c2dad745a47eULL);
}
