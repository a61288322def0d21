/**
 * @file
 * Tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::mem;

TEST(CacheArray, GeometryValidation)
{
    EXPECT_THROW(CacheArray("x", 0, 8), FatalError);
    EXPECT_THROW(CacheArray("x", 32768, 0), FatalError);
    EXPECT_THROW(CacheArray("x", 32768, 8, 48), FatalError); // non-pow2
    // 3 sets is not a power of two: 3 * 8 * 64 bytes.
    EXPECT_THROW(CacheArray("x", 3 * 8 * 64, 8, 64), FatalError);
}

TEST(CacheArray, GeometryAccessors)
{
    CacheArray c("c", 32 * 1024, 8, 64);
    EXPECT_EQ(c.sizeBytes(), 32u * 1024);
    EXPECT_EQ(c.associativity(), 8u);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray c("c", 4096, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.hitCount(), 2u);
    EXPECT_EQ(c.missCount(), 1u);
}

TEST(CacheArray, LruEvictsOldest)
{
    // 2-way, line 64: set count = 4096 / (2*64) = 32 sets.
    CacheArray c("c", 4096, 2);
    std::uint64_t set_stride = 32 * 64; // same set every stride
    // Fill one set with two lines.
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    // Touch the first again so the second becomes LRU.
    c.access(0 * set_stride);
    // Insert a third: must evict line 1.
    c.access(2 * set_stride);
    EXPECT_TRUE(c.probe(0 * set_stride));
    EXPECT_FALSE(c.probe(1 * set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(CacheArray, ProbeDoesNotAllocateOrTouch)
{
    CacheArray c("c", 4096, 2);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_EQ(c.missCount(), 0u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c("c", 4096, 2);
    c.access(0x80);
    EXPECT_TRUE(c.invalidate(0x80));
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_FALSE(c.invalidate(0x80)); // second time: not present
}

TEST(CacheArray, FlushDropsEverything)
{
    CacheArray c("c", 4096, 2);
    for (int i = 0; i < 32; ++i)
        c.access(i * 64);
    EXPECT_GT(c.occupancy(), 0u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, WorkingSetWithinCapacityAllHits)
{
    CacheArray c("c", 32 * 1024, 8);
    // 16 KB working set in a 32 KB cache: second pass must fully hit.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < 16 * 1024; a += 64)
            c.access(a);
    }
    EXPECT_EQ(c.missCount(), 256u); // only the first pass
    EXPECT_EQ(c.hitCount(), 256u);
}

TEST(CacheArray, CyclicOversizedSetThrashes)
{
    // Classic LRU pathology: cycling N+1 lines through an N-way set
    // misses every time.
    CacheArray c("c", 2 * 64, 2, 64); // one set, 2 ways
    for (int pass = 0; pass < 4; ++pass) {
        for (int l = 0; l < 3; ++l)
            c.access(static_cast<std::uint64_t>(l) * 64);
    }
    EXPECT_EQ(c.hitCount(), 0u);
}

TEST(CacheArray, OccupancyIsLiveAcrossFillInvalidateFlush)
{
    // occupancy() is an O(1) counter, not a scan; it must track every
    // transition exactly: fill (+1), hit (0), conflict eviction (0,
    // replaces valid with valid), invalidate (-1), flush (reset).
    CacheArray c("c", 2 * 64, 2, 64); // one set, 2 ways
    EXPECT_EQ(c.occupancy(), 0u);
    c.access(0 * 64);
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(0 * 64); // hit: no change
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(1 * 64);
    EXPECT_EQ(c.occupancy(), 2u);
    c.access(2 * 64); // conflict miss: evict + fill, net zero
    EXPECT_EQ(c.occupancy(), 2u);
    EXPECT_TRUE(c.invalidate(2 * 64));
    EXPECT_EQ(c.occupancy(), 1u);
    EXPECT_FALSE(c.invalidate(2 * 64)); // absent: no change
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(3 * 64); // refills the invalidated way
    EXPECT_EQ(c.occupancy(), 2u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, RenormalizationPreservesLruOrder)
{
    // The packed layout renormalises recency stamps when the narrow
    // clock saturates. Replacement must be bit-identical across that
    // boundary: build a known recency order in one set, push the clock
    // over the renormalisation point from another set, then check the
    // eviction order is exactly the order the stamps encoded.
    CacheArray c("c", 2 * 4 * 64, 4, 64); // 2 sets, 4 ways
    std::uint64_t stride = 2 * 64;        // stays in set 0
    for (int w = 0; w < 4; ++w)
        c.access(w * stride);
    // Recency now 0 < 1 < 2 < 3; touch 1 and 0 => order 2 < 3 < 1 < 0.
    c.access(1 * stride);
    c.access(0 * stride);

    // Saturate the clock from set 1 (stampMask is small for this
    // geometry, so a few hundred accesses cross it several times).
    for (int i = 0; i < 1000; ++i)
        c.access(64 + (i % 3) * stride);

    // Evict from set 0 one line at a time: victims must come out in
    // stamp order 2, 3, 1, 0.
    const int expect[] = {2, 3, 1, 0};
    for (int round = 0; round < 4; ++round) {
        c.access((10 + round) * stride); // new line evicts one victim
        EXPECT_FALSE(c.probe(expect[round] * stride))
            << "round " << round;
        for (int later = round + 1; later < 4; ++later)
            EXPECT_TRUE(c.probe(expect[later] * stride))
                << "round " << round << " line " << later;
    }
}

TEST(CacheArray, HighAddressBitsDistinguishTags)
{
    // The packed word keeps the full tag (with a +1 bias); addresses
    // differing only far above the index bits must not alias, and
    // address 0 must not hit in an empty set (the all-zero word is the
    // invalid encoding).
    CacheArray c("c", 4096, 4); // 16 sets: all three land in set 0
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(1ull << 40));
    EXPECT_FALSE(c.access(1ull << 62));
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(1ull << 40));
    EXPECT_TRUE(c.probe(1ull << 62));
    CacheArray d("d", 4096, 4);
    EXPECT_FALSE(d.probe(0));
}

namespace {

/**
 * Stamp-free true-LRU model: per set, the resident lines in recency
 * order (front = least recently used). It shares nothing with
 * CacheArray — no packed stamps, no renormalisation, no scans — so it
 * checks the rank renormalisation and the batch loop independently of
 * the batch-vs-per-line differentials, which share both.
 */
class LruOracle
{
  public:
    LruOracle(unsigned n_sets, unsigned ways)
        : ways(ways), order(n_sets)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        std::vector<std::uint64_t> &set = setOf(addr);
        auto it = std::find(set.begin(), set.end(), addr / 64);
        bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == ways)
            set.erase(set.begin());
        set.push_back(addr / 64);
        return hit;
    }

    bool
    invalidate(std::uint64_t addr)
    {
        std::vector<std::uint64_t> &set = setOf(addr);
        auto it = std::find(set.begin(), set.end(), addr / 64);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    bool
    probe(std::uint64_t addr)
    {
        const std::vector<std::uint64_t> &set = setOf(addr);
        return std::find(set.begin(), set.end(), addr / 64) != set.end();
    }

    void
    flush()
    {
        for (auto &set : order)
            set.clear();
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto &set : order)
            n += set.size();
        return n;
    }

  private:
    std::vector<std::uint64_t> &
    setOf(std::uint64_t addr)
    {
        return order[addr / 64 % order.size()];
    }

    unsigned ways;
    std::vector<std::vector<std::uint64_t>> order;
};

} // namespace

TEST(CacheArray, MatchesStampFreeLruOracle)
{
    struct Geo
    {
        unsigned ways;
        unsigned sets;
    };
    // Few sets keep the stamp field narrow (6 line bits + the set
    // bits), so each run wraps the LRU clock dozens to hundreds of
    // times. 8 and 20 ways take the fixed-width batch loops, the rest
    // the runtime-width one.
    const Geo geos[] = {{1, 2}, {2, 2}, {4, 4}, {8, 2}, {16, 4}, {20, 2}};
    for (const Geo &g : geos) {
        SCOPED_TRACE(std::to_string(g.ways) + "-way, " +
                     std::to_string(g.sets) + " sets");
        CacheArray c("c", std::uint64_t(g.ways) * g.sets * 64, g.ways);
        LruOracle ref(g.sets, g.ways);
        sim::Rng rng(0x5eed + g.ways);
        // Twice the capacity in distinct lines: hits, conflict misses
        // and refills all stay common.
        const std::uint64_t n_lines = 2ull * g.ways * g.sets;
        auto draw = [&] { return rng.range(n_lines) * 64 + rng.range(64); };

        for (int op = 0; op < 6000; ++op) {
            std::uint64_t kind = rng.range(1000);
            if (kind < 600) {
                std::uint64_t a = draw();
                ASSERT_EQ(c.access(a), ref.access(a)) << "op " << op;
            } else if (kind < 900) {
                // A run through the production batch loop (no hit
                // bitmap) or the bitmap instantiation of the same body.
                std::size_t n = 1 + rng.range(3 * g.ways * g.sets);
                std::vector<std::uint64_t> run(n);
                for (auto &a : run)
                    a = draw();
                std::vector<std::uint64_t> miss(n);
                std::vector<std::uint64_t> bitmap((n + 63) / 64);
                bool with_bitmap = rng.chance(0.5);
                std::size_t hits = c.accessBatch(
                    run.data(), n, miss.data(),
                    with_bitmap ? bitmap.data() : nullptr);
                std::size_t ref_hits = 0, nmiss = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    bool hit = ref.access(run[i]);
                    ref_hits += hit;
                    if (!hit) {
                        ASSERT_EQ(miss[nmiss++], run[i])
                            << "op " << op << " line " << i;
                    }
                    if (with_bitmap) {
                        ASSERT_EQ(bitmap[i / 64] >> (i % 64) & 1,
                                  std::uint64_t(hit))
                            << "op " << op << " line " << i;
                    }
                }
                ASSERT_EQ(hits, ref_hits) << "op " << op;
            } else if (kind < 999) {
                std::uint64_t a = draw();
                ASSERT_EQ(c.invalidate(a), ref.invalidate(a))
                    << "op " << op;
            } else {
                c.flush();
                ref.flush();
            }
            ASSERT_EQ(c.occupancy(), ref.occupancy()) << "op " << op;
            for (std::uint64_t l = 0; l < n_lines; ++l)
                ASSERT_EQ(c.probe(l * 64), ref.probe(l * 64))
                    << "op " << op << " line " << l;
        }
        // Enough accesses for dozens of clock periods (stampMask is
        // 2^(6 + set bits) - 1; the rare flushes restart the clock).
        EXPECT_GT(c.hitCount() + c.missCount(), 20u * 64 * g.sets);
    }
}

struct CacheGeom
{
    std::uint64_t size;
    unsigned assoc;
};

// gtest names each case after its printed parameter. Without this it
// prints the struct's 16 bytes, and the 4 padding bytes after assoc
// differ from build to build.
void
PrintTo(const CacheGeom &g, std::ostream *os)
{
    *os << g.size / 1024 << "KiB-" << g.assoc << "way";
}

class CacheArrayProperty : public ::testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheArrayProperty, OccupancyNeverExceedsCapacity)
{
    auto [size, assoc] = GetParam();
    CacheArray c("c", size, assoc);
    sim::Rng rng(size ^ assoc);
    std::uint64_t capacity = size / 64;
    for (int i = 0; i < 20000; ++i)
        c.access(rng.range(1 << 22) * 64);
    EXPECT_LE(c.occupancy(), capacity);
    EXPECT_EQ(c.hitCount() + c.missCount(), 20000u);
}

TEST_P(CacheArrayProperty, ResidentLineStaysUntilConflict)
{
    auto [size, assoc] = GetParam();
    CacheArray c("c", size, assoc);
    c.access(0);
    // Touching other sets never evicts set 0's line.
    unsigned sets = c.numSets();
    for (unsigned s = 1; s < sets; ++s)
        c.access(static_cast<std::uint64_t>(s) * 64);
    EXPECT_TRUE(c.probe(0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(CacheGeom{4096, 1}, CacheGeom{4096, 2},
                      CacheGeom{32 * 1024, 8}, CacheGeom{256 * 1024, 8},
                      CacheGeom{1024 * 1024, 16}));
