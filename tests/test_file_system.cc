/**
 * @file
 * Tests for the extent-based file system.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "bench/bench_common.hh"
#include "os/file_system.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

FileSystem
makeFs()
{
    return FileSystem(sim::Rng(42));
}

/** Every page's LBA, in page order: the flat block map. */
std::vector<Lba>
flatMap(const File &f)
{
    std::vector<Lba> lbas(f.numPages());
    for (std::uint64_t i = 0; i < f.numPages(); ++i)
        lbas[i] = f.lbaOf(i);
    return lbas;
}

/** The same table read through a forward cursor. */
std::vector<Lba>
cursorMap(const File &f)
{
    std::vector<Lba> lbas(f.numPages());
    File::Cursor c = f.cursor();
    for (std::uint64_t i = 0; i < f.numPages(); ++i)
        lbas[i] = c.lbaOf(i);
    return lbas;
}

/** FNV-1a over the little-endian bytes of every page's LBA. */
std::uint64_t
lbaHash(const std::vector<Lba> &lbas)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (Lba lba : lbas) {
        for (unsigned b = 0; b < sizeof(lba); ++b) {
            h ^= (lba >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

std::vector<std::uint8_t>
saveFs(FileSystem &fs)
{
    sim::Serializer s = sim::Serializer::saver();
    fs.serialize(s);
    return s.takeBlob();
}

} // namespace

TEST(FileSystem, CreateAndLookup)
{
    auto fs = makeFs();
    File *f = fs.createFile("data", 100, BlockDeviceId{0, 0});
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->numPages(), 100u);
    EXPECT_EQ(fs.lookup("data"), f);
    EXPECT_EQ(fs.byId(f->id()), f);
    EXPECT_EQ(fs.lookup("nope"), nullptr);
    EXPECT_EQ(fs.byId(99), nullptr);
}

TEST(FileSystem, DuplicateNameRejected)
{
    auto fs = makeFs();
    fs.createFile("a", 10, BlockDeviceId{0, 0});
    EXPECT_THROW(fs.createFile("a", 10, BlockDeviceId{0, 0}),
                 FatalError);
}

TEST(FileSystem, EmptyFileRejected)
{
    auto fs = makeFs();
    EXPECT_THROW(fs.createFile("e", 0, BlockDeviceId{0, 0}), FatalError);
}

TEST(FileSystem, LbasAreUniqueAcrossFiles)
{
    auto fs = makeFs();
    File *a = fs.createFile("a", 5000, BlockDeviceId{0, 0});
    File *b = fs.createFile("b", 5000, BlockDeviceId{0, 0});
    std::set<Lba> seen;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        EXPECT_TRUE(seen.insert(a->lbaOf(i)).second);
        EXPECT_TRUE(seen.insert(b->lbaOf(i)).second);
    }
}

TEST(FileSystem, ExtentsAreMostlyContiguous)
{
    auto fs = makeFs();
    File *f = fs.createFile("big", 10000, BlockDeviceId{0, 0});
    std::uint64_t contiguous = 0;
    for (std::uint64_t i = 1; i < 10000; ++i)
        contiguous += f->lbaOf(i) == f->lbaOf(i - 1) + 1;
    // Extents average 512 pages: the overwhelming majority of
    // neighbours are physically adjacent.
    EXPECT_GT(contiguous, 9900u);
}

TEST(FileSystem, LbaBeyondEofPanics)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 4, BlockDeviceId{0, 0});
    EXPECT_THROW(f->lbaOf(4), PanicError);
}

TEST(FileSystem, RemapChangesLbaAndNotifies)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 16, BlockDeviceId{1, 2});
    f->markLbaAugmented();

    File *seen_file = nullptr;
    std::uint64_t seen_idx = 0;
    Lba seen_lba = 0;
    fs.setRemapListener([&](File &file, std::uint64_t idx, Lba lba) {
        seen_file = &file;
        seen_idx = idx;
        seen_lba = lba;
    });

    Lba before = f->lbaOf(7);
    fs.remapPage(*f, 7);
    EXPECT_NE(f->lbaOf(7), before);
    EXPECT_EQ(seen_file, f);
    EXPECT_EQ(seen_idx, 7u);
    EXPECT_EQ(seen_lba, f->lbaOf(7));
}

TEST(FileSystem, DeviceIdIsPreserved)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 4, BlockDeviceId{3, 5});
    EXPECT_EQ(f->device().sid, 3u);
    EXPECT_EQ(f->device().dev, 5u);
}

TEST(FileSystem, MarkLbaAugmentedSticks)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 4, BlockDeviceId{0, 0});
    EXPECT_FALSE(f->lbaAugmentedMapping());
    f->markLbaAugmented();
    EXPECT_TRUE(f->lbaAugmentedMapping());
}

TEST(FileSystem, SuiteDatasetLbasMatchTheFlatTable)
{
    // Pins taken from the flat one-LBA-per-page table the block map
    // replaced: the canonical suite's 1M-page fio.dat and 256K-page
    // kv.dat, created the way its machines create them at seed 42.
    struct Case
    {
        const char *name;
        std::uint64_t pages;
        std::uint64_t hash;
    };
    for (const Case &c :
         {Case{"fio.dat", 8 * bench::defaultMemFrames,
               0x09d656b6ffbec43aULL},
          Case{"kv.dat", bench::defaultDatasetPages,
               0xc99affc8143db15fULL}}) {
        system::MachineConfig cfg =
            bench::paperConfig(system::PagingMode::hwdp);
        cfg.seed = 42;
        system::System sys(cfg);
        File *f = sys.createFile(c.name, c.pages);
        const std::vector<Lba> flat = flatMap(*f);
        EXPECT_EQ(lbaHash(flat), c.hash) << c.name;
        EXPECT_EQ(cursorMap(*f), flat) << c.name;
        // A few thousand runs stand for a million pages.
        EXPECT_LT(f->extentCount(), c.pages / 256) << c.name;
    }
}

TEST(FileSystem, RemapSplitsRunsPageByPage)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 5000, BlockDeviceId{0, 0});
    std::vector<Lba> ref = flatMap(*f);
    fs.setRemapListener([&](File &, std::uint64_t idx, Lba lba) {
        ref[idx] = lba;
    });
    // Run boundaries of the fresh layout.
    std::vector<std::uint64_t> starts{0};
    for (std::uint64_t i = 1; i < ref.size(); ++i) {
        if (ref[i] != ref[i - 1] + 1)
            starts.push_back(i);
    }
    ASSERT_GE(starts.size(), 4u);
    ASSERT_EQ(f->extentCount(), starts.size());

    // A run's first page, a middle page and its last page split it
    // into two, three and two pieces; remapping the lone page left in
    // the middle again moves it without another split.
    const std::uint64_t first = starts[1];
    const std::uint64_t middle = (starts[2] + starts[3]) / 2;
    const std::uint64_t last = starts[3] - 1;
    struct Step
    {
        std::uint64_t index;
        std::size_t newRuns;
    };
    for (const Step &st : {Step{first, 1}, Step{middle, 2}, Step{last, 1},
                           Step{middle, 0}}) {
        const std::size_t before = f->extentCount();
        fs.remapPage(*f, st.index);
        EXPECT_EQ(f->extentCount(), before + st.newRuns) << st.index;
        for (std::uint64_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(f->lbaOf(i), ref[i]) << "page " << i;
        EXPECT_EQ(flatMap(*f), ref);
    }
    // The first and the last page of the file.
    fs.remapPage(*f, 0);
    fs.remapPage(*f, f->numPages() - 1);
    EXPECT_EQ(flatMap(*f), ref);
}

TEST(FileSystem, RemappedFileRoundTripsThroughACheckpoint)
{
    auto fs = makeFs();
    File *f = fs.createFile("f", 3000, BlockDeviceId{0, 0});
    fs.createFile("g", 700, BlockDeviceId{0, 1});
    sim::Rng pick(5);
    for (int i = 0; i < 40; ++i)
        fs.remapPage(*f, pick.range(f->numPages()));
    const std::vector<std::uint8_t> blob = saveFs(fs);

    // The restore target is built by the same recipe, unremapped.
    auto twin = makeFs();
    File *tf = twin.createFile("f", 3000, BlockDeviceId{0, 0});
    twin.createFile("g", 700, BlockDeviceId{0, 1});
    ASSERT_NE(flatMap(*tf), flatMap(*f));
    sim::Serializer load = sim::Serializer::loader(blob);
    twin.serialize(load);
    EXPECT_TRUE(load.exhausted());
    EXPECT_EQ(flatMap(*tf), flatMap(*f));
    EXPECT_EQ(tf->extentCount(), f->extentCount());
    EXPECT_EQ(saveFs(twin), blob);
    EXPECT_EQ(twin.allocatedBlocks(), fs.allocatedBlocks());
}

TEST(FileSystem, RestoreRefusesRunsOutOfOrderOverlappingOrPastEof)
{
    // One file's block map goes out as its run count and runs of
    // (first page, first LBA), followed by the file's mark byte.
    auto fs = makeFs();
    File *f = fs.createFile("f", 3000, BlockDeviceId{0, 0});
    const std::uint64_t nr = f->extentCount();
    ASSERT_GE(nr, 3u);
    const std::vector<std::uint8_t> blob = saveFs(fs);
    const std::size_t runs = blob.size() - 1 - 16 * nr;
    auto word = [&](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, &blob[at], sizeof(v));
        return v;
    };
    ASSERT_EQ(word(runs - 8), nr);
    ASSERT_EQ(word(runs), 0u);
    const std::uint64_t page1 = word(runs + 16);

    struct Tamper
    {
        const char *what;
        std::size_t at;
        std::uint64_t value;
    };
    for (const Tamper &t :
         {Tamper{"no runs", runs - 8, 0},
          Tamper{"more runs than pages", runs - 8, 3001},
          Tamper{"page 0 unmapped", runs, 1},
          Tamper{"out of order", runs + 32, page1 - 1},
          Tamper{"overlapping", runs + 32, page1},
          Tamper{"past EOF", runs + 16 * (nr - 1), 3000},
          Tamper{"past the next free LBA", runs + 16 * (nr - 1) + 8,
                 fs.allocatedBlocks()}}) {
        SCOPED_TRACE(t.what);
        std::vector<std::uint8_t> bad = blob;
        std::memcpy(&bad[t.at], &t.value, sizeof(t.value));
        auto twin = makeFs();
        twin.createFile("f", 3000, BlockDeviceId{0, 0});
        sim::Serializer load = sim::Serializer::loader(bad);
        try {
            twin.serialize(load);
            ADD_FAILURE() << "tampered block map accepted";
        } catch (const sim::SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("block map of 'f'"),
                      std::string::npos)
                << e.what();
        }
    }
}
