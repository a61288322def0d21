/**
 * @file
 * Tests for the two-level TLB.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "cpu/tlb.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace hwdp;
using namespace hwdp::cpu;

TEST(Tlb, MissOnEmpty)
{
    Tlb tlb;
    auto r = tlb.lookup(0x1000);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, InsertThenL1Hit)
{
    Tlb tlb;
    tlb.insert(0x1000, 55);
    auto r = tlb.lookup(0x1234); // same page
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.pfn, 55u);
}

TEST(Tlb, L2BacksUpL1Evictions)
{
    Tlb tlb(4, 64, 4); // tiny L1
    for (VAddr v = 0; v < 16; ++v)
        tlb.insert(v << pageShift, v + 100);
    // Entry 0 fell out of the 4-entry L1 but must hit in the L2 and
    // be promoted.
    auto r = tlb.lookup(0);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.pfn, 100u);
    auto r2 = tlb.lookup(0);
    EXPECT_TRUE(r2.l1Hit);
}

TEST(Tlb, InvalidateRemovesBothLevels)
{
    Tlb tlb;
    tlb.insert(0x5000, 9);
    tlb.invalidate(0x5000);
    EXPECT_FALSE(tlb.lookup(0x5000).hit);
}

TEST(Tlb, FlushClearsEverything)
{
    Tlb tlb;
    for (VAddr v = 0; v < 32; ++v)
        tlb.insert(v << pageShift, v);
    tlb.flush();
    for (VAddr v = 0; v < 32; ++v)
        EXPECT_FALSE(tlb.lookup(v << pageShift).hit);
}

TEST(Tlb, L1LruKeepsRecentlyUsed)
{
    Tlb tlb(2, 64, 4);
    tlb.insert(0x1000, 1);
    tlb.insert(0x2000, 2);
    tlb.lookup(0x1000);     // make 0x1000 MRU
    tlb.insert(0x3000, 3);  // evicts 0x2000 from L1
    EXPECT_TRUE(tlb.lookup(0x1000).l1Hit);
    EXPECT_FALSE(tlb.lookup(0x2000).l1Hit); // L2 hit at best
}

TEST(Tlb, UpdateExistingTranslation)
{
    Tlb tlb;
    tlb.insert(0x1000, 1);
    tlb.insert(0x1000, 2);
    EXPECT_EQ(tlb.lookup(0x1000).pfn, 2u);
}

TEST(Tlb, StatsCountMisses)
{
    Tlb tlb;
    tlb.lookup(0x1000);
    tlb.insert(0x1000, 1);
    tlb.lookup(0x1000);
    EXPECT_EQ(tlb.lookups(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.l1Misses(), 1u);
}

TEST(Tlb, BadGeometryRejected)
{
    EXPECT_THROW(Tlb(0, 64, 4), FatalError);
    EXPECT_THROW(Tlb(4, 0, 4), FatalError);
    EXPECT_THROW(Tlb(4, 63, 4), FatalError); // not divisible by assoc
}

TEST(Tlb, CapacityBoundProperty)
{
    Tlb tlb(8, 32, 4);
    sim::Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        tlb.insert(rng.range(1 << 20) << pageShift, i);
    // No crash and lookups stay sane.
    int hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += tlb.lookup(rng.range(1 << 20) << pageShift).hit;
    EXPECT_LT(hits, 1000);
}

TEST(Tlb, LatchServesRepeatedLookups)
{
    Tlb tlb;
    tlb.insert(0x1000, 7);
    EXPECT_TRUE(tlb.lookup(0x1000).l1Hit); // primes the latch
    std::uint64_t base = tlb.latchHits();
    for (int i = 0; i < 10; ++i) {
        auto r = tlb.lookup(0x1000 + i * 8); // same page
        EXPECT_TRUE(r.l1Hit);
        EXPECT_EQ(r.pfn, 7u);
    }
    EXPECT_EQ(tlb.latchHits(), base + 10);
}

TEST(Tlb, LatchInvalidationIsExact)
{
    // Invalidate the latched translation, then look it up again: the
    // latch must not serve the stale PFN.
    Tlb tlb;
    tlb.insert(0x1000, 7);
    ASSERT_TRUE(tlb.lookup(0x1000).hit); // latched
    tlb.invalidate(0x1000);
    EXPECT_FALSE(tlb.lookup(0x1000).hit);

    // Same for flush.
    tlb.insert(0x2000, 8);
    ASSERT_TRUE(tlb.lookup(0x2000).hit);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(0x2000).hit);
}

TEST(Tlb, LatchFollowsRemap)
{
    // A remap of the latched page must be visible on the next lookup
    // even though the latch still points at the same L1 slot.
    Tlb tlb;
    tlb.insert(0x1000, 7);
    ASSERT_EQ(tlb.lookup(0x1000).pfn, 7u);
    tlb.insert(0x1000, 9);
    EXPECT_EQ(tlb.lookup(0x1000).pfn, 9u);
}

TEST(Tlb, InsertIsIdempotentForL2Lru)
{
    // Re-inserting a resident translation with its existing PFN (a
    // re-walk after e.g. an A-bit update) is a no-op: unlike a real
    // *use* (lookup), it must not refresh the entry's L2 recency.
    // Single-entry L1 so L1 refills can't mask the L2 state; 4-entry
    // fully-associative L2.
    Tlb tlb(1, 4, 4);
    for (VAddr v = 1; v <= 4; ++v)
        tlb.insert(v << pageShift, v);
    // A real use: VPN 1 becomes the newest in L2.
    ASSERT_TRUE(tlb.lookup(1ull << pageShift).hit);
    // No-ops: VPN 2 stays the oldest despite three re-inserts.
    for (int i = 0; i < 3; ++i)
        tlb.insert(2ull << pageShift, 2);
    tlb.insert(5ull << pageShift, 5); // evicts VPN 2, not VPN 1
    EXPECT_TRUE(tlb.lookup(1ull << pageShift).hit);
    EXPECT_FALSE(tlb.lookup(2ull << pageShift).hit);
    EXPECT_TRUE(tlb.lookup(5ull << pageShift).hit);
}

TEST(Tlb, InterleavedInsertInvalidateFlush)
{
    // Regression sweep over operation interleavings: after any
    // sequence, a lookup must agree with a shadow map of what was
    // inserted minus what was invalidated/flushed.
    Tlb tlb(4, 16, 4, 2);
    sim::Rng rng(11);
    std::vector<std::pair<std::uint64_t, Pfn>> shadow; // newest wins
    auto shadowLookup = [&](std::uint64_t vpn) -> const Pfn * {
        for (auto it = shadow.rbegin(); it != shadow.rend(); ++it)
            if (it->first == vpn)
                return &it->second;
        return nullptr;
    };
    for (int step = 0; step < 5000; ++step) {
        std::uint64_t vpn = rng.range(64);
        switch (rng.range(8)) {
          case 0:
            tlb.invalidate(vpn << pageShift);
            std::erase_if(shadow,
                          [&](auto &p) { return p.first == vpn; });
            break;
          case 1:
            if (rng.chance(0.02)) {
                tlb.flush();
                shadow.clear();
                break;
            }
            [[fallthrough]];
          default:
            tlb.insert(vpn << pageShift, static_cast<Pfn>(step));
            std::erase_if(shadow,
                          [&](auto &p) { return p.first == vpn; });
            shadow.emplace_back(vpn, static_cast<Pfn>(step));
            break;
        }
        // The TLB may evict (capacity), but it must never hit with a
        // wrong PFN and never hit something invalidated or flushed.
        auto r = tlb.lookup(vpn << pageShift);
        const Pfn *want = shadowLookup(vpn);
        if (!want) {
            EXPECT_FALSE(r.hit) << "stale hit at step " << step;
        } else if (r.hit) {
            EXPECT_EQ(r.pfn, *want) << "wrong PFN at step " << step;
        }
    }
}

TEST(Tlb, FlatL1EvictsLeastRecentlyUsed)
{
    // 4-entry 2-way L1: VPNs 0 and 2 land in set 0, VPNs 1 and 3 in
    // set 1 (set index = vpn & 1). Touch one way, insert a third VPN
    // into the same set, and the untouched way must be the victim.
    Tlb tlb(4, 64, 4, 2);
    tlb.insert(0ull << pageShift, 10); // set 0
    tlb.insert(2ull << pageShift, 12); // set 0
    tlb.lookup(0ull << pageShift);     // VPN 0 is now MRU
    tlb.insert(4ull << pageShift, 14); // set 0: evicts VPN 2
    EXPECT_TRUE(tlb.lookup(0ull << pageShift).l1Hit);
    EXPECT_TRUE(tlb.lookup(4ull << pageShift).l1Hit);
    EXPECT_FALSE(tlb.lookup(2ull << pageShift).l1Hit); // L2 at best
}

namespace {

/**
 * Valid entries per level, recounted from the checkpoint blob: the
 * "tlb" section tag and geometry word, then per level (L1 first) a
 * presence bitmap and each present entry as vpn, pfn, lastUse, the
 * valid byte and the reach byte (wide-capable TLBs).
 */
std::array<std::uint32_t, 2>
recountValid(Tlb &tlb, unsigned l1_entries, unsigned l2_entries)
{
    sim::Serializer s = sim::Serializer::saver();
    tlb.serialize(s);
    const std::vector<std::uint8_t> &b = s.blob();
    constexpr std::size_t entryBytes = 3 * sizeof(std::uint64_t) + 2;
    std::size_t at = 2 * sizeof(std::uint64_t);
    std::array<std::uint32_t, 2> n{0, 0};
    for (unsigned lv = 0; lv < 2; ++lv) {
        const unsigned entries = lv == 0 ? l1_entries : l2_entries;
        int present = 0;
        for (unsigned w = 0; w < (entries + 63) / 64; ++w) {
            std::uint64_t word = 0;
            for (unsigned k = 0; k < 8; ++k)
                word |= std::uint64_t(b.at(at++)) << (8 * k);
            present += std::popcount(word);
        }
        for (int i = 0; i < present; ++i, at += entryBytes)
            n[lv] += b.at(at + 3 * sizeof(std::uint64_t));
    }
    return n;
}

} // namespace

TEST(Tlb, ValidCountMatchesRecount)
{
    // The host-side valid counts that let a shootdown skip an empty
    // level must equal a brute-force recount after every kind of
    // update: fills that evict, lookups that refill the L1 from the
    // L2, single and range invalidations of 4 KB and wide entries,
    // flushes, and a restore into a fresh TLB.
    constexpr unsigned l1n = 8, l2n = 32;
    Tlb tlb(l1n, l2n, 4, 2, /*wide_capable=*/true);
    sim::Rng rng(23);
    auto expectCounts = [&](int step) {
        auto n = recountValid(tlb, l1n, l2n);
        ASSERT_EQ(tlb.validEntries(0), n[0]) << "L1 at step " << step;
        ASSERT_EQ(tlb.validEntries(1), n[1]) << "L2 at step " << step;
    };
    const unsigned reaches[] = {0, napotShift, pmdLeafShift};
    for (int step = 0; step < 4000; ++step) {
        VAddr va = rng.range(4096) << pageShift;
        switch (rng.range(10)) {
          case 0:
            tlb.invalidate(va);
            break;
          case 1:
            tlb.invalidateRange(va, 1 + rng.range(64));
            break;
          case 2:
            if (rng.chance(0.05))
                tlb.flush();
            break;
          case 3:
          case 4:
            tlb.lookup(va);
            break;
          default:
            tlb.insert(va, rng.range(1 << 20), reaches[rng.range(3)]);
            break;
        }
        expectCounts(step);
    }
    ASSERT_GT(tlb.validEntries(0), 0u);
    ASSERT_GT(tlb.validEntries(1), 0u);

    // A TLB nothing filled counts zero, and its shootdown keeps it so.
    Tlb empty(l1n, l2n, 4, 2, true);
    empty.invalidate(0x1000);
    EXPECT_EQ(empty.validEntries(0), 0u);
    EXPECT_EQ(empty.validEntries(1), 0u);

    // A restore recounts: the fresh TLB's counts match the blob, and a
    // shootdown of a restored translation still reaches it.
    tlb.insert(0x7000, 77);
    sim::Serializer save = sim::Serializer::saver();
    tlb.serialize(save);
    const std::vector<std::uint8_t> blob = save.takeBlob();
    Tlb twin(l1n, l2n, 4, 2, true);
    sim::Serializer load = sim::Serializer::loader(blob);
    twin.serialize(load);
    EXPECT_EQ(twin.validEntries(0), tlb.validEntries(0));
    EXPECT_EQ(twin.validEntries(1), tlb.validEntries(1));
    twin.invalidate(0x7000);
    EXPECT_FALSE(twin.lookup(0x7000).hit);
    auto n = recountValid(twin, l1n, l2n);
    EXPECT_EQ(twin.validEntries(0), n[0]);
    EXPECT_EQ(twin.validEntries(1), n[1]);
    tlb.flush();
    expectCounts(-1);
    EXPECT_EQ(tlb.validEntries(0) + tlb.validEntries(1), 0u);
}
