/**
 * @file
 * Two-level TLB model (per logical core).
 *
 * Geometry approximates the evaluation machine: a 64-entry 8-way L1
 * DTLB in front of a 1536-entry 8-way L2 STLB. The base machine
 * models 4 KB translations only; with MachineConfig::pageMode engaged
 * the same arrays also hold wide entries — 64 KB NAPOT ranges
 * (reach 4) and 2 MB PMD leaves (reach 9) — tagged by reach and
 * indexed by their base VPN, the usual multi-probe design. A machine
 * built with wide_capable = false (pageMode = off) never inserts a
 * wide entry and the per-reach probes are skipped behind zero entry
 * counts, so its lookup/fill/LRU sequence is byte-identical to the
 * pre-huge-page TLB.
 *
 * Both levels are flat set-associative arrays (the L1 used to be an
 * unordered_map + list LRU, which put two pointer chases and an
 * allocation churn on the per-access fast path). A one-entry last-VPN
 * latch in front of the L1 catches the strong page locality of
 * compute bursts: a latch hit is a single compare. The latch is an
 * index into the L1 array, so recency still updates on every hit and
 * invalidation stays exact; it is reach-aware — a latched wide entry
 * covers every VPN in its range, and invalidations of any covered
 * VPN drop it.
 */

#ifndef HWDP_CPU_TLB_HH
#define HWDP_CPU_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::cpu {

class Tlb
{
  public:
    struct Result
    {
        bool hit = false;      ///< Hit in either level.
        bool l1Hit = false;
        Pfn pfn = 0;           ///< Exact 4 KB frame for the address.
    };

    /**
     * @p l1_assoc is clamped to @p l1_entries, so small test
     * geometries (e.g. 4-entry L1) stay fully associative.
     * @p wide_capable allows wide (NAPOT / 2 MB) entries; off keeps
     * the 4 KB-only behaviour and blob layout. @p reg is the
     * machine's stat list (nullptr: on none).
     */
    Tlb(unsigned l1_entries = 64, unsigned l2_entries = 1536,
        unsigned l2_assoc = 8, unsigned l1_assoc = 8,
        bool wide_capable = false, sim::StatRegistry *reg = nullptr,
        std::string name = "tlb");

    Result
    lookup(VAddr vaddr)
    {
        ++statLookups;
        std::uint64_t vpn = vaddr >> pageShift;

        if (latchIdx != npos &&
            (vpn >> latchReach) == (latchVpn >> latchReach)) {
            Entry &e = l1[latchIdx];
            e.lastUse = ++useClock;
            ++nLatchHits;
            if (e.reach)
                ++statWideHits;
            return Result{true, true,
                          e.pfn + (vpn & ((1ULL << e.reach) - 1))};
        }
        return lookupSlow(vpn);
    }

    /**
     * Install a translation in both levels. @p reach is log2(pages)
     * the entry covers (0 = 4 KB, napotShift, pmdLeafShift); vaddr
     * and pfn are truncated to the range's base. Idempotent: a VPN
     * already resident in a level is left in place (same PFN:
     * untouched; a remap updates the PFN and recency) instead of
     * re-inserting — re-walking a translation that is still in the
     * L1 must not churn the L2's LRU state.
     */
    void insert(VAddr vaddr, Pfn pfn, unsigned reach = 0);

    /**
     * Shoot down the translation for one address: the 4 KB entry and
     * any wide entry whose range covers it, in both levels and the
     * latch.
     */
    void invalidate(VAddr vaddr);

    /**
     * Shoot down every entry overlapping [vaddr, vaddr + pages*4K) —
     * the huge-page demotion/promotion broadcast. Scans both arrays,
     * so it is priced for the rare wide-mode maintenance path, not
     * the per-access one.
     */
    void invalidateRange(VAddr vaddr, std::uint64_t pages);

    /** Full flush (context switch between address spaces). */
    void flush();

    std::uint64_t lookups() const { return statLookups.value(); }
    std::uint64_t l1Misses() const { return statL1Misses.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    /** L1 hits served by the one-entry last-VPN latch (host-side). */
    std::uint64_t latchHits() const { return nLatchHits; }
    /** Hits (either level or latch) served by a wide entry. */
    std::uint64_t wideHits() const { return statWideHits.value(); }
    /** Valid entries in the L1 (@p level 0) or the L2 (1). */
    std::uint32_t validEntries(unsigned level) const
    {
        return nValid[level];
    }

    /** Checkpoint both arrays, the latch and the clock. */
    void serialize(sim::Serializer &s);

  private:
    struct Entry
    {
        std::uint64_t vpn = 0; ///< Base VPN (aligned to 1 << reach).
        Pfn pfn = 0;           ///< Base PFN (aligned to 1 << reach).
        std::uint64_t lastUse = 0;
        bool valid = false;
        std::uint8_t reach = 0; ///< log2(pages) covered.

        bool operator==(const Entry &) const = default;
    };

    static constexpr std::size_t npos = ~std::size_t(0);

    unsigned l1Assoc;
    unsigned l1Sets;
    unsigned l2Assoc;
    unsigned l2Sets;
    bool wideCapable;

    std::vector<Entry> l1; // l1Sets * l1Assoc, row-major by set
    std::vector<Entry> l2; // l2Sets * l2Assoc, row-major by set
    std::uint64_t useClock = 0;

    /** Last translated base VPN and its L1 slot; npos = no latch. */
    std::uint64_t latchVpn = 0;
    std::size_t latchIdx = npos;
    std::uint8_t latchReach = 0;

    /** Valid wide entries per level (index 0 = L1), per reach. */
    std::uint32_t nNapot[2] = {0, 0};
    std::uint32_t nHuge[2] = {0, 0};

    /**
     * Valid entries per level, so a shootdown skips the set scans of
     * a TLB no thread filled. Host-side: recounted on restore, never
     * serialized.
     */
    std::uint32_t nValid[2] = {0, 0};

    /**
     * Latch hits are host-side: the latch is a lookup shortcut, so a
     * host-only change to it may move the count. Never serialized.
     */
    std::uint64_t nLatchHits = 0;

    sim::StatGroup grp;
    sim::Counter statLookups;
    sim::Counter statL1Misses;
    sim::Counter statMisses;
    sim::Counter statWideHits; ///< Registered when wide-capable.

    Result lookupSlow(std::uint64_t vpn);
    Entry *find(std::vector<Entry> &lvl, unsigned sets, unsigned assoc,
                std::uint64_t vpn, unsigned reach);
    Entry *fill(std::vector<Entry> &lvl, unsigned sets, unsigned assoc,
                std::uint64_t vpn, Pfn pfn, unsigned reach);

    unsigned levelOf(const std::vector<Entry> &lvl) const
    {
        return &lvl == &l1 ? 0 : 1;
    }
    void countWide(unsigned level, unsigned reach, int delta);
};

} // namespace hwdp::cpu

#endif // HWDP_CPU_TLB_HH
