/**
 * @file
 * Tests for VMAs, address spaces and the reverse map — in particular
 * the eviction path that re-arms LBA-augmented PTEs (Section IV-B).
 */

#include <gtest/gtest.h>

#include "os/file_system.hh"
#include "os/page.hh"
#include "os/rmap.hh"
#include "os/vma.hh"
#include "sim/logging.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

struct Fixture : ::testing::Test
{
    FileSystem fs{sim::Rng(9)};
    File *file = fs.createFile("f", 256, BlockDeviceId{2, 3});
    AddressSpace as{0};
};

} // namespace

using VmaTest = Fixture;

TEST_F(VmaTest, AddAndFind)
{
    Vma *v = as.addVma(file, 0, 256, false, pte::writableBit);
    EXPECT_EQ(as.findVma(v->start), v);
    EXPECT_EQ(as.findVma(v->end - 1), v);
    EXPECT_EQ(as.findVma(v->end), nullptr);
    EXPECT_EQ(v->numPages(), 256u);
}

TEST_F(VmaTest, MappingsDoNotOverlapAndHaveGuardGap)
{
    Vma *a = as.addVma(file, 0, 16, false, 0);
    Vma *b = as.addVma(file, 0, 16, false, 0);
    EXPECT_GE(b->start, a->end + pageSize);
}

TEST_F(VmaTest, FileIndexAccountsForOffset)
{
    Vma *v = as.addVma(file, 10, 16, false, 0);
    EXPECT_EQ(v->fileIndexOf(v->start), 10u);
    EXPECT_EQ(v->fileIndexOf(v->start + 3 * pageSize), 13u);
}

TEST_F(VmaTest, ZeroLengthRejected)
{
    EXPECT_THROW(as.addVma(file, 0, 0, false, 0), FatalError);
}

TEST_F(VmaTest, RemoveVma)
{
    Vma *v = as.addVma(file, 0, 16, false, 0);
    VAddr start = v->start;
    as.removeVma(v);
    EXPECT_EQ(as.findVma(start), nullptr);
}

TEST_F(VmaTest, RmapSingleMappingOnly)
{
    Rmap rmap(nullptr);
    Page pg;
    pg.pfn = 1;
    rmap.setMapping(pg, as, 0x1000);
    EXPECT_EQ(pg.as, &as);
    EXPECT_THROW(rmap.setMapping(pg, as, 0x2000), PanicError);
    rmap.clearMapping(pg);
    EXPECT_EQ(pg.as, nullptr);
}

TEST_F(VmaTest, EvictionOfFastMmapPageWritesLbaPte)
{
    Vma *v = as.addVma(file, 0, 16, true, pte::writableBit);
    VAddr va = v->start + 4 * pageSize;

    Page pg;
    pg.pfn = 99;
    pg.inUse = true;
    pg.file = file;
    pg.index = 4;

    int shootdowns = 0;
    Rmap rmap([&](AddressSpace &, VAddr sva) {
        ++shootdowns;
        EXPECT_EQ(sva, va);
    });
    rmap.setMapping(pg, as, va);
    as.pageTable().writePte(va, pte::makePresent(99, v->prot));

    bool dirty = rmap.unmapForEviction(pg);
    EXPECT_FALSE(dirty);
    EXPECT_EQ(shootdowns, 1);
    EXPECT_EQ(pg.as, nullptr);

    pte::Entry e = as.pageTable().readPte(va);
    auto target = pte::lbaTargetOf(e);
    ASSERT_TRUE(target);
    EXPECT_EQ(target->lba, file->lbaOf(4));
    EXPECT_EQ(target->sid, 2u);
    EXPECT_EQ(target->dev, 3u);
    EXPECT_EQ(rmap.evictionsToLba(), 1u);
}

TEST_F(VmaTest, EvictionOfNormalPageClearsPte)
{
    Vma *v = as.addVma(file, 0, 16, false, pte::writableBit);
    VAddr va = v->start;

    Page pg;
    pg.pfn = 7;
    pg.inUse = true;
    pg.file = file;
    pg.index = 0;

    Rmap rmap(nullptr);
    rmap.setMapping(pg, as, va);
    as.pageTable().writePte(va, pte::makePresent(7, v->prot));

    rmap.unmapForEviction(pg);
    EXPECT_EQ(as.pageTable().readPte(va), 0u);
    EXPECT_EQ(rmap.evictionsPlain(), 1u);
}

TEST_F(VmaTest, EvictionTransfersPteDirtyBit)
{
    Vma *v = as.addVma(file, 0, 16, true, pte::writableBit);
    VAddr va = v->start;

    Page pg;
    pg.pfn = 5;
    pg.inUse = true;
    pg.file = file;
    pg.index = 0;

    Rmap rmap(nullptr);
    rmap.setMapping(pg, as, va);
    as.pageTable().writePte(va, pte::makePresent(5, v->prot) |
                                    pte::dirtyBit);

    EXPECT_TRUE(rmap.unmapForEviction(pg));
    EXPECT_TRUE(pg.dirty);
}

TEST_F(VmaTest, EvictingUnmappedPagePanics)
{
    Rmap rmap(nullptr);
    Page pg;
    pg.pfn = 3;
    EXPECT_THROW(rmap.unmapForEviction(pg), PanicError);
}
