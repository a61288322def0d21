/**
 * @file
 * Tests for the LBA-augmented PTE encoding (paper Figure 6 / Table I).
 */

#include <gtest/gtest.h>

#include "os/pte.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::os::pte;

TEST(Pte, EmptyEntryIsOsHandledMiss)
{
    Entry e = 0;
    EXPECT_FALSE(isPresent(e));
    EXPECT_FALSE(hasLbaBit(e));
    EXPECT_TRUE(isOsHandledMiss(e));
    EXPECT_FALSE(isLbaAugmented(e));
    EXPECT_FALSE(needsMetadataSync(e));
}

TEST(Pte, PresentEncodingRoundTrips)
{
    Entry e = makePresent(0x12345, writableBit | userBit);
    EXPECT_TRUE(isPresent(e));
    EXPECT_FALSE(hasLbaBit(e));
    EXPECT_EQ(pfnOf(e), 0x12345u);
    EXPECT_TRUE(isWritable(e));
    EXPECT_FALSE(isAccessed(e));
    EXPECT_FALSE(isDirty(e));
}

TEST(Pte, LbaBitIsBitTen)
{
    // The paper's real-machine prototype uses bit 10.
    EXPECT_EQ(lbaBit, 1ULL << 10);
}

TEST(Pte, HardwareHandledStateKeepsLbaBit)
{
    Entry e = makePresent(0x77, writableBit, true);
    EXPECT_TRUE(isPresent(e));
    EXPECT_TRUE(hasLbaBit(e));
    EXPECT_TRUE(needsMetadataSync(e));
    EXPECT_FALSE(isLbaAugmented(e)); // it is present
    Entry synced = clearLbaBit(e);
    EXPECT_FALSE(needsMetadataSync(synced));
    EXPECT_EQ(pfnOf(synced), 0x77u);
}

TEST(Pte, LbaAugmentedFieldWidths)
{
    // 3-bit SID, 3-bit device id, 41-bit LBA (Section III-B).
    Entry e = makeLbaAugmented(7, 7, maxLba, 0);
    auto t = lbaTargetOf(e);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->sid, 7u);
    EXPECT_EQ(t->dev, 7u);
    EXPECT_EQ(t->lba, maxLba);
    EXPECT_EQ(maxLba, (1ULL << 41) - 1);
}

TEST(Pte, DecoderRefusesAPresentEntry)
{
    // On a resident entry the <SID, device, LBA> bits hold the PFN:
    // this one's would read as socket 7, device 7. Table I gives the
    // fields meaning only when P=0 and LBA=1, so nothing decodes.
    Entry e = makePresent(0x3f, writableBit, true);
    ASSERT_EQ(detail::socketIdOf(e), 7u);
    ASSERT_EQ(detail::deviceIdOf(e), 7u);
    EXPECT_FALSE(lbaTargetOf(e).has_value());
    EXPECT_FALSE(lbaTargetOf(clearLbaBit(e)).has_value());
    // Nor does a non-present entry without the LBA bit.
    EXPECT_FALSE(lbaTargetOf(clearLbaBit(e) & ~presentBit).has_value());
}

TEST(Pte, LbaAugmentedPreservesProtection)
{
    Entry e = makeLbaAugmented(1, 2, 0x999, writableBit | userBit |
                                               nxBit);
    EXPECT_TRUE(isWritable(e));
    EXPECT_EQ(protectionOf(e), writableBit | userBit | nxBit);
    EXPECT_FALSE(isPresent(e));
    EXPECT_TRUE(isLbaAugmented(e));
}

TEST(Pte, FieldsDoNotOverlapControlBits)
{
    // An all-ones LBA must not leak into the present/LBA/protection
    // bits.
    Entry e = makeLbaAugmented(7, 7, maxLba, 0);
    EXPECT_FALSE(isPresent(e));
    EXPECT_TRUE(hasLbaBit(e));
    EXPECT_FALSE(isWritable(e));
}

TEST(Pte, TableOneSemantics)
{
    // The four PTE rows of Table I map to mutually exclusive states.
    Entry os_miss = 0;
    Entry hw_miss = makeLbaAugmented(0, 0, 5, 0);
    Entry hw_done = makePresent(9, 0, true);
    Entry synced = makePresent(9, 0, false);

    for (Entry e : {os_miss, hw_miss, hw_done, synced}) {
        int states = (isOsHandledMiss(e) ? 1 : 0) +
                     (isLbaAugmented(e) ? 1 : 0) +
                     (needsMetadataSync(e) ? 1 : 0) +
                     ((isPresent(e) && !hasLbaBit(e)) ? 1 : 0);
        EXPECT_EQ(states, 1) << "entry " << e;
    }
}

TEST(Pte, SetAndClearLbaBitAreInverses)
{
    Entry e = makePresent(0x1234, writableBit);
    EXPECT_EQ(clearLbaBit(setLbaBit(e)), e);
}

struct LbaTriple
{
    unsigned sid;
    unsigned dev;
    Lba lba;
};

class PteRoundTrip : public ::testing::TestWithParam<LbaTriple>
{
};

TEST_P(PteRoundTrip, EncodeDecode)
{
    auto [sid, dev, lba] = GetParam();
    Entry e = makeLbaAugmented(sid, dev, lba, writableBit);
    auto t = lbaTargetOf(e);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->sid, sid);
    EXPECT_EQ(t->dev, dev);
    EXPECT_EQ(t->lba, lba);
    EXPECT_TRUE(isLbaAugmented(e));
}

INSTANTIATE_TEST_SUITE_P(
    Corners, PteRoundTrip,
    ::testing::Values(LbaTriple{0, 0, 0}, LbaTriple{7, 0, 1},
                      LbaTriple{0, 7, 2}, LbaTriple{3, 5, 0xdeadbeef},
                      LbaTriple{7, 7, (1ULL << 41) - 1},
                      LbaTriple{1, 2, 1ULL << 40}));

TEST(Pte, RandomRoundTrips)
{
    sim::Rng rng(2024);
    for (int i = 0; i < 10000; ++i) {
        unsigned sid = static_cast<unsigned>(rng.range(8));
        unsigned dev = static_cast<unsigned>(rng.range(8));
        Lba lba = rng.range(maxLba + 1);
        Entry e = makeLbaAugmented(sid, dev, lba, userBit);
        auto t = lbaTargetOf(e);
        ASSERT_TRUE(t);
        ASSERT_EQ(t->sid, sid);
        ASSERT_EQ(t->dev, dev);
        ASSERT_EQ(t->lba, lba);
    }
}

TEST(Pte, RandomPfnRoundTrips)
{
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        Pfn pfn = rng.range(1ULL << 40);
        Entry e = makePresent(pfn, writableBit, rng.chance(0.5));
        ASSERT_EQ(pfnOf(e), pfn);
        ASSERT_TRUE(isPresent(e));
    }
}
