/**
 * @file
 * Four-level x86-64-style page table with LBA-augmented entries.
 *
 * Levels follow Linux naming: PGD -> PUD -> PMD -> PT(E). Each table
 * has 512 eight-byte entries and a unique simulated physical address,
 * so components that operate on *entry addresses* — the SMU's page
 * table updater receives the PUD-entry, PMD-entry and PTE addresses
 * with every page-miss request (Section III-C) — have real, unique
 * keys to work with.
 */

#ifndef HWDP_OS_PAGE_TABLE_HH
#define HWDP_OS_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "os/pte.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

/** Levels of the tree, leaf first. */
enum class PtLevel : unsigned { pt = 0, pmd = 1, pud = 2, pgd = 3 };

/** A reference to one entry: its storage and its simulated address. */
struct EntryRef
{
    pte::Entry *slot = nullptr;
    PAddr addr = 0;

    bool valid() const { return slot != nullptr; }
    pte::Entry value() const { return *slot; }
    void write(pte::Entry e) const { *slot = e; }
};

/** The three entry references a page-miss request carries to the SMU. */
struct WalkRefs
{
    EntryRef pud;
    EntryRef pmd;
    EntryRef pte;
};

class PageTable
{
  public:
    static constexpr unsigned entriesPerTable = 512;
    static constexpr unsigned bitsPerLevel = 9;

    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Read the leaf PTE for @p vaddr; returns 0 (not-present,
     * OS-handled) when intermediate tables are absent.
     */
    pte::Entry readPte(VAddr vaddr) const;

    /**
     * Write the leaf PTE, creating intermediate tables as needed
     * (the fast-mmap population path allocates the whole tree,
     * Section IV-B).
     */
    void writePte(VAddr vaddr, pte::Entry e);

    /**
     * Write @p n consecutive leaf PTEs starting at @p start, where
     * fn(i) produces the entry for page i. Exactly equivalent to n
     * writePte calls — same tree structure, same table-allocation
     * order — but descends the tree once per 512-entry leaf table
     * instead of once per page, so the bulk mmap-population sweeps
     * (a million pages for the paper-scale datasets) stop paying
     * four levels of pointer chasing per page.
     */
    template <typename Fn>
    void writePteRun(VAddr start, std::uint64_t n, Fn &&fn)
    {
        std::uint64_t i = 0;
        while (i < n) {
            VAddr va = start + i * pageSize;
            Table *t = root.get();
            for (int level = 3; level >= 1; --level) {
                t = childTable(
                    *t, levelIndex(va, static_cast<PtLevel>(level)),
                    true);
            }
            unsigned idx = levelIndex(va, PtLevel::pt);
            std::uint64_t chunk = std::min<std::uint64_t>(
                n - i, entriesPerTable - idx);
            for (std::uint64_t k = 0; k < chunk; ++k)
                t->e[idx + k] = fn(i + k);
            i += chunk;
        }
    }

    /**
     * Get references to the PUD entry, PMD entry and PTE covering
     * @p vaddr, creating tables when @p allocate. Refs are invalid
     * when tables are absent and !allocate.
     */
    WalkRefs walkRefs(VAddr vaddr, bool allocate);

    /** Set the LBA bit on the PMD and PUD entries covering @p vaddr. */
    void markUpperLba(VAddr vaddr);

    // ---- 2 MB PMD leaves (pageMode != off) ---------------------------
    /**
     * Reference to the PMD entry covering @p vaddr (the slot a 2 MB
     * leaf occupies), creating upper tables when @p allocate. Invalid
     * when the PUD/PMD path is absent and !allocate.
     */
    EntryRef hugeLeafRef(VAddr vaddr, bool allocate);

    /**
     * Install @p leaf (pte::makeHugeLeaf) as the PMD entry covering
     * @p vaddr. Any child PT kept from an earlier demotion stays
     * allocated (entry addresses are forever) but is zeroed and
     * unreachable while the leaf is live.
     */
    void writeHugeLeaf(VAddr vaddr, pte::Entry leaf);

    /**
     * Demote the 2 MB leaf covering @p vaddr into a child PT of 512
     * per-4 KB PTEs with the leaf's flags and consecutive frames.
     */
    void splitHugeLeaf(VAddr vaddr);

    /** Invoke @p fn for every 2 MB leaf whose window intersects
     * [start, end), with the window base address and the PMD ref. */
    void forEachHugeLeaf(VAddr start, VAddr end,
                         const std::function<void(VAddr, EntryRef)> &fn);

    /**
     * kpted scan over [start, end): visits only subtrees whose upper
     * -level LBA bits are set, clearing those bits before descending
     * (Section IV-C), then invokes @p fn for every PTE with both
     * present and LBA bits set.
     *
     * @param fn            Called with (vaddr, EntryRef of the PTE).
     * @param entries_visited Out: upper+leaf entries inspected, the
     *                      scan-cost metric for the kpted ablation.
     * @return number of PTEs synchronised (fn invocations).
     */
    std::uint64_t scanUnsynced(VAddr start, VAddr end,
                               const std::function<void(VAddr,
                                                        EntryRef)> &fn,
                               std::uint64_t *entries_visited = nullptr);

    /**
     * Exhaustive variant that ignores upper-level LBA bits (the
     * baseline the ablation compares against).
     */
    std::uint64_t scanUnsyncedFull(VAddr start, VAddr end,
                                   const std::function<void(VAddr,
                                                            EntryRef)> &fn,
                                   std::uint64_t *entries_visited = nullptr);

    /**
     * Iterate every populated leaf PTE in [start, end) (used by
     * munmap and fork-revert).
     */
    void forEachPte(VAddr start, VAddr end,
                    const std::function<void(VAddr, EntryRef)> &fn);

    /** Number of table pages currently allocated (space accounting). */
    std::uint64_t tablePages() const { return nTables; }

    /**
     * Checkpoint the tree *structurally*: every table's simulated
     * base address rides along with its entries, because entry
     * addresses key the SMU's page-table updater and the walkers'
     * PWCs — a restored tree must hand out the identical addresses.
     * Tables present in the blob but absent in the (identically
     * booted, never-run) target are created with their recorded
     * bases; a target table whose base disagrees is a boot mismatch.
     */
    void serialize(sim::Serializer &s);

  private:
    struct Table
    {
        using Children = std::array<std::unique_ptr<Table>, entriesPerTable>;

        std::array<pte::Entry, entriesPerTable> e{};
        /** Allocated with the first child: leaf tables never have one. */
        std::unique_ptr<Children> child;
        PAddr base = 0;

        Table *childAt(unsigned idx) const
        {
            return child ? (*child)[idx].get() : nullptr;
        }
    };

    std::unique_ptr<Table> root; // the PGD
    std::uint64_t nTables = 0;
    PAddr nextTableBase;

    Table *childTable(Table &t, unsigned idx, bool allocate);

    /** Create child @p idx of @p t (base unset) and count it. */
    Table &newChild(Table &t, unsigned idx);

    void serializeTable(sim::Serializer &s, Table &t);

    static unsigned levelIndex(VAddr vaddr, PtLevel level);

    std::uint64_t scanImpl(VAddr start, VAddr end, bool guided,
                           const std::function<void(VAddr, EntryRef)> &fn,
                           std::uint64_t *entries_visited);
};

} // namespace hwdp::os

#endif // HWDP_OS_PAGE_TABLE_HH
