/**
 * @file
 * Extent-based file system model.
 *
 * Maps (file, page index) to an LBA on a specific block device — the
 * storage-layout knowledge the LBA-augmented page table mirrors into
 * PTEs. Files are allocated in extents with configurable fragmentation
 * so LBAs are realistic (mostly sequential with seams), and a file's
 * block map keeps those extents as runs rather than one LBA per page.
 * Block mapping changes (copy-on-write or log-structured updates,
 * Section IV-B) go through remapPage(), which splits the page's run and
 * notifies a registered listener so the kernel can patch LBA-augmented
 * PTEs.
 */

#ifndef HWDP_OS_FILE_SYSTEM_HH
#define HWDP_OS_FILE_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

/** A block device address: socket-local SMU id + device id. */
struct BlockDeviceId
{
    unsigned sid = 0;
    unsigned dev = 0;

    bool operator==(const BlockDeviceId &) const = default;
};

class File
{
  public:
    File(std::uint32_t id, std::string name, std::uint64_t n_pages,
         BlockDeviceId bdev);

    std::uint32_t id() const { return fid; }
    const std::string &name() const { return fname; }
    std::uint64_t numPages() const { return nPages; }
    BlockDeviceId device() const { return bdev; }

    /** LBA backing page @p index. One LBA covers one 4 KB page. */
    Lba lbaOf(std::uint64_t index) const;

    /** Runs in the block map: page ranges on consecutive LBAs. */
    std::size_t extentCount() const { return runs.size(); }

    /**
     * Forward cursor over the block map for sweeps in page order
     * (bulk PTE population): each lbaOf() index must be below
     * numPages() and no smaller than the previous one, and costs an
     * amortized step instead of a search.
     */
    class Cursor
    {
      public:
        Lba
        lbaOf(std::uint64_t index)
        {
            const std::vector<Run> &r = file->runs;
            while (run + 1 < r.size() && r[run + 1].page <= index)
                ++run;
            return r[run].lba + (index - r[run].page);
        }

      private:
        friend class File;
        explicit Cursor(const File &f) : file(&f) {}

        const File *file;
        std::size_t run = 0;
    };
    Cursor cursor() const { return Cursor(*this); }

    /** True once the fast-mmap path has marked this file (IV-B). */
    bool lbaAugmentedMapping() const { return marked; }
    void markLbaAugmented() { marked = true; }

  private:
    friend class FileSystem;

    /**
     * Pages [page, next run's page) sit on LBAs lba, lba + 1, ...
     * The extent layout the allocator made, split where remapPage
     * moved single blocks: a few thousand runs for a million pages.
     */
    struct Run
    {
        std::uint64_t page;
        Lba lba;
    };

    std::uint32_t fid;
    std::string fname;
    BlockDeviceId bdev;
    std::uint64_t nPages;
    std::vector<Run> runs; // sorted by page; runs[0].page == 0
    bool marked = false;

    /** Index of the run holding page @p index (< numPages()). */
    std::size_t runOf(std::uint64_t index) const;
    /**
     * Map pages from @p page (the first unmapped one) on to LBAs from
     * @p lba on, continuing the last run when the LBAs follow it.
     */
    void appendRun(std::uint64_t page, Lba lba);
    /** Move page @p index alone to @p lba, splitting its run. */
    void setLba(std::uint64_t index, Lba lba);
    /**
     * Refuse restored runs that leave page 0 unmapped, are out of
     * order or overlap, start past EOF, or reach LBA @p lba_end (the
     * allocator's next one).
     */
    void checkRuns(Lba lba_end) const;
    [[noreturn]] void badRuns(const std::string &what) const;
};

class FileSystem
{
  public:
    /**
     * @param rng          Drives extent-seam placement.
     * @param extent_pages Mean pages per contiguous extent.
     */
    explicit FileSystem(sim::Rng rng, std::uint64_t extent_pages = 512);

    /** Create a file of @p n_pages 4 KB pages on @p bdev. */
    File *createFile(const std::string &name, std::uint64_t n_pages,
                     BlockDeviceId bdev);

    File *lookup(const std::string &name);
    File *byId(std::uint32_t id);

    /**
     * Re-locate one page's block (CoW / log-structured update) and
     * notify the remap listener with the new LBA.
     */
    void remapPage(File &file, std::uint64_t index);

    /** Listener invoked as (file, page index, new LBA). */
    using RemapListener =
        std::function<void(File &, std::uint64_t, Lba)>;
    void setRemapListener(RemapListener fn) { onRemap = std::move(fn); }

    std::uint64_t allocatedBlocks() const { return nextLba; }

    /**
     * Checkpoint the allocator stream and every file's block map as
     * its runs (remapPage mutates maps after creation). File
     * identities are boot structure and only verified.
     */
    void serialize(sim::Serializer &s);

  private:
    sim::Rng rng;
    std::uint64_t extentPages;
    std::vector<std::unique_ptr<File>> files;
    Lba nextLba = 1024; // low LBAs reserved for superblock/metadata
    RemapListener onRemap;

    void allocateExtents(File &f);
};

} // namespace hwdp::os

#endif // HWDP_OS_FILE_SYSTEM_HH
