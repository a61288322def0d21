/**
 * @file
 * Bit-identity of the batched pollution engine against per-line
 * oracles: the cache-array batch API under randomized and adversarial
 * (set-colliding, aliasing) runs, the level-major hierarchy descent,
 * the bulk RNG / branch-predictor streams, and KernelExec's phase
 * pollution against a test-side per-line loop. Whole machines are
 * pinned by golden stats-dump hashes, including a compute-only thread
 * that sweeps burst shapes no workload builds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/branch_predictor.hh"
#include "mem/cache_array.hh"
#include "mem/cache_hierarchy.hh"
#include "os/kernel_phases.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/machine_differ.hh"
#include "tests/reference_gshare.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
using namespace hwdp::mem;
namespace ht = hwdp::testing;

namespace {

template <typename T>
std::vector<std::uint8_t>
blobOf(T &component)
{
    sim::Serializer s = sim::Serializer::saver();
    component.serialize(s);
    return s.takeBlob();
}

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

TEST(PollutionBatch, EightWayLaneGroupBoundaries)
{
    // The 8-way batch scans groups of up to eight lines whose sets are
    // pairwise distinct (on AVX-512 builds; elsewhere these runs
    // exercise the per-line loop). Drive every group shape against
    // per-line access(): each conflict-prefix length, runs that end
    // mid-group, runs that meet the renormalisation headroom inside
    // their first group, and groups whose hit bits straddle a bitmap
    // word.
    CacheArray batch("b", 4096, 8); // 8 sets, stampMask 511
    CacheArray ref("r", 4096, 8);
    const std::uint64_t stride = batch.numSets() * batch.lineBytes();
    sim::Rng rng(0x1a9e5);
    // Line of set `set` with one of a few tags: hits and misses mix.
    auto line = [&](std::uint64_t set) {
        return rng.range(12) * stride + set * 64 + rng.range(64);
    };

    // Conflict-prefix lengths 1..8: lines 0..len-1 in distinct sets,
    // then (len < 8) a line back in the set of line `dup`, then enough
    // lines that the first group sees all eight lanes.
    for (int rep = 0; rep < 4; ++rep) {
        for (unsigned len = 1; len <= 8; ++len) {
            for (unsigned dup = 0; dup < len; ++dup) {
                std::vector<std::uint64_t> run;
                const std::uint64_t first = rng.range(8);
                for (unsigned j = 0; j < len; ++j)
                    run.push_back(line((first + j) % 8));
                if (len < 8)
                    run.push_back(line((first + dup) % 8));
                for (unsigned j = 0; j < 8; ++j)
                    run.push_back(line(rng.range(8)));
                expectBatchMatchesPerLine(batch, ref, run);
            }
        }
    }

    // Run lengths 1..17 of random sets: groups that end mid-run.
    for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t len = 1; len <= 17; ++len) {
            std::vector<std::uint64_t> run;
            for (std::size_t j = 0; j < len; ++j)
                run.push_back(line(rng.range(8)));
            expectBatchMatchesPerLine(batch, ref, run);
        }
    }

    // The clock's saturation inside a group's reach: after a flush the
    // clock restarts at 0, so 511 - gap accesses leave `gap` stamps
    // before the renormalisation, and a run of distinct sets meets it
    // within its first eight lines (or right after the first group).
    for (std::uint64_t gap = 1; gap <= 9; ++gap) {
        batch.flush();
        ref.flush();
        std::vector<std::uint64_t> warm;
        for (std::uint64_t j = 0; j < 511 - gap; ++j)
            warm.push_back(line(rng.range(8)));
        expectBatchMatchesPerLine(batch, ref, warm);
        std::vector<std::uint64_t> run;
        for (std::uint64_t j = 0; j < 24; ++j)
            run.push_back(line(j % 8));
        expectBatchMatchesPerLine(batch, ref, run);
    }

    // Groups that straddle bitmap words: single-set runs of 57..63
    // lines (groups of one), then distinct sets, which put a group
    // across bit 64 at most offsets.
    for (std::size_t lead = 57; lead < 64; ++lead) {
        std::vector<std::uint64_t> run;
        for (std::size_t j = 0; j < lead; ++j)
            run.push_back(line(3));
        for (std::size_t j = 0; j < 80; ++j)
            run.push_back(line(j % 8));
        expectBatchMatchesPerLine(batch, ref, run);
    }
}

TEST(PollutionBatch, BurstDrawsMatchPerDrawCalls)
{
    // cpu::drawBurst against one range()/chance() call per draw, in the
    // per-reference model's order, for all four (cold drawn, taken
    // drawn) combinations, lengths off the vector width and bounds at
    // the limb boundaries of the high product.
    struct Cold
    {
        std::uint64_t bytes;
        double frac;
    };
    const std::uint64_t bounds[] = {1, (1ull << 32) - 1, 1ull << 32,
                                    1ull << 63};
    const std::uint32_t sites[] = {1, 0xffffffffu, 64};
    // Drawn: a proper fraction. Not drawn: no cold region, never, or
    // always cold.
    const Cold colds[] = {{1ull << 32, 0.08}, {0, 0.5}, {1ull << 63, 0.0},
                          {(1ull << 32) - 1, 1.0}};
    const double biases[] = {0.96, 0.0, 1.0};
    const std::size_t lengths[] = {0, 1, 7, 9, 15, 17, 100};

    std::uint64_t seed = 1;
    for (std::uint64_t hot : bounds) {
        for (std::uint32_t nsites : sites) {
            for (const Cold &cold : colds) {
                for (double bias : biases) {
                    for (std::size_t n : lengths) {
                        workloads::ComputeSpec spec;
                        spec.hotBytes = hot;
                        spec.coldBytes = cold.bytes;
                        spec.coldFrac = cold.frac;
                        spec.staticBranches = nsites;
                        spec.branchBias = bias;
                        const std::size_t n_br = n + seed % 3;
                        std::vector<std::uint64_t> addrs(n), pcs(n_br);
                        std::vector<std::uint8_t> taken(n_br);
                        sim::Rng fused(seed), ref(seed);
                        ++seed;
                        cpu::drawBurst(fused, spec, n, n_br, addrs.data(),
                                       pcs.data(), taken.data());
                        for (std::size_t i = 0; i < n; ++i) {
                            bool c = spec.coldBytes > 0 &&
                                     ref.chance(spec.coldFrac);
                            std::uint64_t a =
                                spec.hotBase + (c ? spec.hotBytes : 0) +
                                (ref.range(c ? spec.coldBytes
                                             : spec.hotBytes) &
                                 ~7ULL);
                            ASSERT_EQ(addrs[i], a) << "ref " << i;
                        }
                        for (std::size_t i = 0; i < n_br; ++i) {
                            ASSERT_EQ(pcs[i],
                                      spec.textBase +
                                          ref.range(spec.staticBranches) *
                                              16)
                                << "branch " << i;
                            ASSERT_EQ(taken[i] != 0,
                                      ref.chance(spec.branchBias))
                                << "branch " << i;
                        }
                        ASSERT_EQ(fused.next(), ref.next())
                            << "hot " << hot << " sites " << nsites
                            << " cold " << cold.bytes << "/" << cold.frac
                            << " bias " << bias << " n " << n;
                    }
                }
            }
        }
    }
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
        for (auto a : run) {
            CacheAccessResult r = ref.access(core, a, is_inst, mode);
            l1m += r.l1Miss;
            l2m += r.l2Miss;
            llcm += r.llcMiss;
        }
        ASSERT_EQ(br.l1Misses, l1m);
        ASSERT_EQ(br.l2Misses, l2m);
        ASSERT_EQ(br.llcMisses, llcm);
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
    ht::ReferenceGshare ref;
    sim::Rng rng(314159);
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 1024; ++i)
        pcs.push_back(0xffffffff81000000ull + i * 16);

    for (int round = 0; round < 30; ++round) {
        // Cover n < n_pcs, n == n_pcs and several-wrap n > n_pcs.
        std::size_t n = 1 + rng.range(3000);
        std::vector<std::uint8_t> taken(n);
        if (round % 3 == 0) {
            // Kernel coin flips.
            rng.fill(0.5, taken.data(), n);
        } else if (round % 3 == 1) {
            // The user bursts' mostly-taken history.
            rng.fill(0.96, taken.data(), n);
        } else {
            // Any non-zero byte is taken.
            for (auto &t : taken)
                t = rng.chance(0.5)
                        ? static_cast<std::uint8_t>(1 + rng.range(255))
                        : 0;
        }
        auto mode = round % 2 ? ExecMode::kernel : ExecMode::user;

        std::uint64_t miss =
            batch.updateBatch(pcs.data(), pcs.size(), taken.data(), n,
                              mode);
        std::uint64_t ref_miss = 0;
        for (std::size_t i = 0; i < n; ++i)
            ref_miss += !ref.predictAndUpdate(pcs[i % pcs.size()],
                                              taken[i] != 0, mode);
        ASSERT_EQ(miss, ref_miss) << "round " << round;
        // The whole state: GHR, every PHT counter, per-mode counts.
        ASSERT_EQ(blobOf(batch), blobOf(ref)) << "round " << round;
    }
}

namespace {

/**
 * Per-line model of KernelExec's phase pollution: one hierarchy
 * descent per text line, then per data line (even slots stable per
 * phase, odd slots stepping by 2 mod 2048 from a per-invocation
 * start), then one predictor update per branch on a 1024-site PC
 * cycle with a chance(0.5) outcome.
 */
struct KernelPollutionOracle
{
    static constexpr unsigned nCats =
        static_cast<unsigned>(os::KernelCostCat::numCats);

    CacheHierarchy &caches;
    std::vector<ht::ReferenceGshare> &bps;
    sim::Rng rng;
    std::uint64_t invocation = 0;
    std::uint64_t probes[nCats] = {};
    std::uint64_t branches[nCats] = {};

    void
    run(unsigned phys_core, const os::KernelPhase &phase)
    {
        ++invocation;
        std::uint64_t h = 1469598103934665603ULL;
        for (const char *p = phase.name; *p; ++p)
            h = (h ^ static_cast<std::uint64_t>(*p)) * 1099511628211ULL;
        std::uint64_t text_base =
            0xffff'ffff'8000'0000ULL + (h & 0x3f'ffc0);
        std::uint64_t data_base =
            0xffff'ea00'0000'0000ULL + ((h >> 20) & 0xff'ffc0);

        auto c = static_cast<unsigned>(phase.cat);
        for (unsigned i = 0; i < phase.icLines; ++i) {
            auto r = caches.access(phys_core, text_base + i * lineSize,
                                   true, ExecMode::kernel);
            probes[c] += 1u + r.l1Miss + r.l2Miss;
        }
        std::uint64_t vary = (invocation * 37 + 1) % 2048;
        for (unsigned i = 0; i < phase.dcLines; ++i) {
            std::uint64_t addr;
            if ((i & 1) == 0) {
                addr = data_base + i * lineSize;
            } else {
                addr = data_base + 0x100'0000 + vary * lineSize;
                vary += 2;
                if (vary >= 2048)
                    vary -= 2048;
            }
            auto r = caches.access(phys_core, addr, false,
                                   ExecMode::kernel);
            probes[c] += 1u + r.l1Miss + r.l2Miss;
        }
        branches[c] += phase.branches;
        for (unsigned i = 0; i < phase.branches; ++i) {
            std::uint64_t pc = text_base + (i % 1024) * 16;
            bps[phys_core].predictAndUpdate(pc, rng.chance(0.5),
                                            ExecMode::kernel);
        }
    }

    /** runBatch(n): data lines and branches scale with n, capped. */
    void
    runBatch(unsigned phys_core, const os::KernelPhase &phase,
             std::uint64_t n)
    {
        os::KernelPhase scaled = phase;
        scaled.dcLines = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(phase.dcLines * n, 4096));
        scaled.branches = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(phase.branches * n, 8192));
        run(phys_core, scaled);
    }
};

} // namespace

TEST(PollutionBatch, KernelExecMatchesPerLineOracle)
{
    const os::KernelPhase *const table[] = {
        &os::phases::exceptionEntry,    &os::phases::vmaLookup,
        &os::phases::pageAlloc,         &os::phases::ioSubmit,
        &os::phases::contextSwitch,     &os::phases::irqDeliver,
        &os::phases::ioComplete,        &os::phases::wakeupSched,
        &os::phases::metadataUpdate,    &os::phases::pteUpdateReturn,
        &os::phases::minorFaultFill,    &os::phases::syscallEntryExit,
        &os::phases::writeSyscall,      &os::phases::mmapSetupPerPage,
        &os::phases::reclaimScanPage,   &os::phases::writebackSubmit,
        &os::phases::writebackComplete, &os::phases::kptedPerPage,
        &os::phases::kptedScanEntry,    &os::phases::kpooldPerPage,
        &os::phases::shootdownIpi,      &os::phases::coalesceScan,
        &os::phases::coalescePromote,   &os::phases::swSmuSubmit,
        &os::phases::swSmuWake,         &os::phases::swSmuComplete};

    CacheParams cp;
    cp.llcBytes = 20 * 64 * 1024; // 20-way, 1024 sets: test-sized
    CacheHierarchy caches(2, cp);
    CacheHierarchy ref_caches(2, cp);
    std::vector<BranchPredictor> bps(2);
    std::vector<ht::ReferenceGshare> ref_bps(2);
    os::KernelExec kexec(caches, bps, sim::Rng(0x5eed));
    KernelPollutionOracle oracle{ref_caches, ref_bps, sim::Rng(0x5eed)};

    sim::Rng rng(0xfacade);
    for (int step = 0; step < 600; ++step) {
        auto core = static_cast<unsigned>(rng.range(2));
        const os::KernelPhase &phase = *table[rng.range(std::size(table))];
        if (rng.chance(0.5)) {
            kexec.run(core, phase);
            oracle.run(core, phase);
        } else {
            // Large n hit the dcLines/branches caps and grow the
            // memoized footprint vectors mid-run.
            std::uint64_t n = 1 + rng.range(600);
            kexec.runBatch(core, phase, n);
            oracle.runBatch(core, phase, n);
        }
        for (unsigned c = 0; c < KernelPollutionOracle::nCats; ++c) {
            auto cat = static_cast<os::KernelCostCat>(c);
            ASSERT_EQ(kexec.pollutionProbes(cat), oracle.probes[c])
                << "step " << step << " " << os::kernelCostCatName(cat);
            ASSERT_EQ(kexec.pollutionBranchUpdates(cat),
                      oracle.branches[c])
                << "step " << step << " " << os::kernelCostCatName(cat);
        }
        if (step % 50 == 49) {
            ASSERT_EQ(blobOf(caches), blobOf(ref_caches)) << "step " << step;
            for (unsigned p = 0; p < 2; ++p)
                ASSERT_EQ(blobOf(bps[p]), blobOf(ref_bps[p]))
                    << "step " << step << " core " << p;
        }
    }
}

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 1099511628211ULL;
    return h;
}

system::MachineConfig
smallMachine(system::PagingMode mode)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    return cfg;
}

/** The observability the stats dump does not cover. */
void
appendPollutionCounters(system::System &sys, std::ostream &os)
{
    os << sys.aggregateUserIpc() << ' ' << sys.userBranchMispredicts()
       << ' ' << sys.userBranchLookups() << ' '
       << sys.kernel().kexec().totalPollutionProbes() << ' '
       << sys.kernel().kexec().totalPollutionBranchUpdates();
}

std::string
runFioStats(system::PagingMode mode, double fault_rate = 0.0)
{
    system::System sys(smallMachine(mode));
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
    appendPollutionCounters(sys, os);
    return os.str();
}

std::string
runYcsbStats(system::PagingMode mode, double fault_rate = 0.0)
{
    system::System sys(smallMachine(mode));
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
    appendPollutionCounters(sys, os);
    return os.str();
}

template <typename T, std::size_t N>
T
pick(sim::Rng &rng, const T (&menu)[N])
{
    return menu[rng.range(N)];
}

/**
 * Compute-only thread whose every burst draws its shape from fixed
 * menus, edge values included: always-cold and never-cold data,
 * always- and never-taken branches, a single branch site, bursts with
 * no data references or branches, sub-line and one-line text, and
 * instruction counts around the 16-instruction fetch granule.
 */
class BurstShapeFuzz final : public workloads::Workload
{
  public:
    explicit BurstShapeFuzz(std::uint64_t bursts) : left(bursts) {}

    workloads::Op
    next(sim::Rng &rng) override
    {
        static constexpr double coldFracs[] = {0.0, 0.08, 0.5, 1.0};
        static constexpr std::uint64_t coldBytes[] = {0, 4096,
                                                      2 * 1024 * 1024};
        static constexpr double biases[] = {0.0, 0.5, 0.9, 1.0};
        static constexpr std::uint32_t sites[] = {1, 7, 64, 4096};
        static constexpr double memRefFracs[] = {0.0, 0.1, 0.4};
        static constexpr double branchFracs[] = {0.0, 0.15, 0.3};
        static constexpr std::uint32_t coldLines[] = {0, 1, 12};
        static constexpr std::uint64_t textBytes[] = {0, 64, 100,
                                                      16 * 1024};
        static constexpr std::uint64_t instructions[] = {0,    1,   15, 16,
                                                         17, 2000, 9500};
        static constexpr double mlps[] = {0.5, 1.0, 4.0};
        static constexpr std::uint64_t hotBytes[] = {8, 64, 4096,
                                                     24 * 1024};
        if (left == 0)
            return workloads::Op::makeDone();
        --left;
        workloads::ComputeSpec s;
        s.coldFrac = pick(rng, coldFracs);
        s.coldBytes = pick(rng, coldBytes);
        s.branchBias = pick(rng, biases);
        s.staticBranches = pick(rng, sites);
        s.memRefFrac = pick(rng, memRefFracs);
        s.branchFrac = pick(rng, branchFracs);
        s.icacheColdLines = pick(rng, coldLines);
        s.textBytes = pick(rng, textBytes);
        s.instructions = pick(rng, instructions);
        s.mlp = pick(rng, mlps);
        s.hotBytes = pick(rng, hotBytes);
        return workloads::Op::makeCompute(s, true);
    }

    const char *label() const override { return "burst_fuzz"; }

  private:
    std::uint64_t left;
};

/**
 * A FIO thread on logical core 0 and the burst fuzzer on core 2, its
 * SMT sibling: kernel work on the shared physical core pollutes the
 * fuzzer's caches and predictor between bursts.
 * @return {FNV-1a of the stats dump and counters, logical-state hash}.
 */
std::pair<std::uint64_t, std::uint64_t>
runBurstFuzz(system::PagingMode mode)
{
    system::System sys(smallMachine(mode));
    auto mf = sys.mapDataset("f", 8 * 1024);
    auto *fio = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1200);
    sys.addThread(*fio, 0, *mf.as);
    auto *fuzz = sys.makeWorkload<BurstShapeFuzz>(3000);
    sys.addThread(*fuzz, 2, *sys.kernel().createAddressSpace());
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);

    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    appendPollutionCounters(sys, os);
    for (const auto &t : sys.threads())
        os << ' ' << t->userInstructions() << ' ' << t->userCycles()
           << ' ' << t->computeCycles() << ' ' << t->appOps();
    return {fnv1a(os.str()),
            ht::snapshot(sys, pagingModeName(mode)).stateHash};
}

/** Runs one compute burst of @p spec on a fresh machine. */
bool
runOneBurst(const workloads::ComputeSpec &spec)
{
    struct OneBurst final : workloads::Workload
    {
        workloads::ComputeSpec spec;
        bool issued = false;

        workloads::Op
        next(sim::Rng &) override
        {
            if (issued)
                return workloads::Op::makeDone();
            issued = true;
            return workloads::Op::makeCompute(spec, true);
        }
        const char *label() const override { return "one_burst"; }
    };
    system::System sys(smallMachine(system::PagingMode::hwdp));
    auto *wl = sys.makeWorkload<OneBurst>();
    wl->spec = spec;
    sys.addThread(*wl, 0, *sys.kernel().createAddressSpace());
    return sys.runUntilThreadsDone(seconds(1.0));
}

} // namespace

TEST(PollutionBatch, GoldenStatsDumpHashes)
{
    // FNV-1a of whole-machine stats dumps plus pollution counters. The
    // batched engine and the per-line loops it replaced produced each
    // value identically. The oracle tests above share the scans,
    // renormalisation and RNG mappings with production; these pins do
    // not. A host-speed change must leave them alone; a deliberate
    // model change updates them and says so.
    using system::PagingMode;
    EXPECT_EQ(fnv1a(runFioStats(PagingMode::osdp)), 0x5df1c32bab4b8bd6ULL);
    EXPECT_EQ(fnv1a(runFioStats(PagingMode::hwdp)), 0xa7781447deeb218cULL);
    EXPECT_EQ(fnv1a(runYcsbStats(PagingMode::hwdp)), 0x94ebcdb1aa127dccULL);
    EXPECT_EQ(fnv1a(runFioStats(PagingMode::swsmu)), 0x77484b1fa9566b10ULL);
    EXPECT_EQ(fnv1a(runFioStats(PagingMode::hwdp, 0.01)),
              0x32e23bf8a0419bf4ULL);
    EXPECT_EQ(fnv1a(runYcsbStats(PagingMode::swsmu, 0.01)),
              0x99e3d86add600ebcULL);
}

TEST(PollutionBatch, BurstShapeGoldenPins)
{
    // Covers the computeBurst branches no workload reaches: always-cold
    // and always-taken draws, zero-reference and zero-branch bursts,
    // one-line text. Pinned from the batched and per-line bursts,
    // which agreed.
    auto osdp = runBurstFuzz(system::PagingMode::osdp);
    EXPECT_EQ(osdp.first, 0xda201197b65d4ff2ULL);
    EXPECT_EQ(osdp.second, 0x35f8bd00a4aaa8adULL);
    auto hwdp = runBurstFuzz(system::PagingMode::hwdp);
    EXPECT_EQ(hwdp.first, 0xcf6fb36c4f47f6a1ULL);
    EXPECT_EQ(hwdp.second, 0x35f8bd00a4aaa8adULL);
}

TEST(PollutionBatch, EmptyHotSetOrBranchSitesPanics)
{
    workloads::ComputeSpec spec;
    spec.instructions = 1000;
    EXPECT_TRUE(runOneBurst(spec)); // the defaults are a valid burst

    workloads::ComputeSpec no_hot = spec;
    no_hot.hotBytes = 0;
    EXPECT_THROW(runOneBurst(no_hot), PanicError);

    workloads::ComputeSpec no_sites = spec;
    no_sites.staticBranches = 0;
    EXPECT_THROW(runOneBurst(no_sites), PanicError);

    // Even a burst that would draw nothing is rejected up front.
    workloads::ComputeSpec empty = no_hot;
    empty.instructions = 0;
    try {
        runOneBurst(empty);
        FAIL() << "empty hot set accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("one_burst#0"),
                  std::string::npos)
            << e.what();
    }
}
