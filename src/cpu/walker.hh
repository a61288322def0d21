/**
 * @file
 * Hardware page-table walker, extended for LBA-augmented PTEs.
 *
 * On a TLB miss the walker reads the four levels of the tree through
 * the cache hierarchy. The extension (Section III-B): when the leaf
 * PTE has present=0 and LBA=1 the walker does not raise an exception —
 * it classifies the access as a hardware-handled page miss and hands
 * the MMU the three entry references plus the <SID, device, LBA>
 * triple the SMU request needs.
 *
 * The walker carries a small page-walk cache (PWC) over the upper
 * levels, the MMU-cache structure real walkers (and gem5's walker
 * model) rely on: PUD and PMD entry reads that hit the PWC skip their
 * cache-hierarchy charge entirely — upper entries cover 1 GB / 2 MB
 * regions, so a handful of entries captures nearly all walks. The PGD
 * entry is modelled as always cached (no charge), and the leaf PTE
 * read is always charged. The PWC is keyed by entry physical address
 * and is timing-only — the walker still reads the live page table, so
 * a stale PWC entry can never produce a wrong translation — but it is
 * shot down alongside the TLB when kpted/reclaim rewrite PTEs, the
 * coherence a real design needs.
 */

#ifndef HWDP_CPU_WALKER_HH
#define HWDP_CPU_WALKER_HH

#include <vector>

#include "mem/cache_hierarchy.hh"
#include "os/page_table.hh"
#include "os/vma.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::cpu {

/**
 * Extra core cycles an LLC-missing access pays when its frame (a data
 * page or a page-table page) lives on a remote socket: the QPI/UPI
 * hop. Charged only on multi-socket machines.
 */
inline constexpr Cycles numaRemoteExtraCycles = 170;

class Walker
{
  public:
    /** Page-walk-cache entries per walker. */
    static constexpr unsigned pwcEntries = 16;

    enum class Classification {
        present,  ///< Translation available; PTE (or a 2 MB PMD
                  ///  leaf — test pte::isHugeLeaf) returned.
        osFault,  ///< present=0, LBA=0: raise an exception.
        hwMiss,   ///< present=0, LBA=1: send to the SMU.
    };

    struct Outcome
    {
        Classification kind = Classification::osFault;
        Tick latency = 0;        ///< Walk latency (cache accesses).
        os::pte::Entry entry = 0;
        os::WalkRefs refs;       ///< Valid for present/hwMiss.
    };

    /**
     * @param pwc_entries Fully-associative page-walk-cache capacity
     *                    over PUD/PMD entries; 0 disables the PWC
     *                    (micro_memsys times a walk without it).
     * @param reg         The machine's stat list (nullptr: on none).
     */
    Walker(mem::CacheHierarchy &caches, unsigned phys_core,
           unsigned pwc_entries = pwcEntries,
           sim::StatRegistry *reg = nullptr, std::string name = "walker");

    /**
     * Walk the tree for @p vaddr, charging cache accesses. Sets the
     * accessed bit on a present PTE (the hardware A-bit update).
     */
    Outcome walk(os::AddressSpace &as, VAddr vaddr);

    /** Drop the PWC entry caching the upper entry at @p entry_addr. */
    void pwcInvalidate(PAddr entry_addr);

    /** Drop every PWC entry (address-space-wide shootdowns, tests). */
    void pwcFlush();

    /**
     * True when no PWC entry is valid — shootdown broadcasts check
     * this before paying for a walk of the invalidation targets (most
     * cores never walk and keep an empty PWC).
     */
    bool pwcEmpty() const { return nPwcValid == 0; }

    std::uint64_t walks() const { return statWalks.value(); }
    std::uint64_t pwcHits() const { return statPwcHits.value(); }
    std::uint64_t pwcMisses() const { return statPwcMisses.value(); }

    /**
     * NUMA model for walk steps. Page-table pages are kernel
     * allocations interleaved across sockets (the entry address —
     * page-granular — picks the node); a walk step that misses the
     * LLC and lands on a remote node pays numaRemoteExtraCycles.
     * Default (n_sockets 1) charges nothing extra.
     */
    void
    setNuma(unsigned my_socket, unsigned n_sockets)
    {
        mySocket = my_socket;
        numaSockets = n_sockets;
        if (n_sockets > 1)
            grp.add(statRemoteSteps);
    }

    /** Checkpoint the PWC contents and recency clock. */
    void serialize(sim::Serializer &s);

  private:
    struct PwcEntry
    {
        PAddr addr = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    mem::CacheHierarchy &caches;
    unsigned physCore;
    std::vector<PwcEntry> pwc;
    std::uint64_t pwcClock = 0;
    unsigned nPwcValid = 0;

    unsigned mySocket = 0;
    unsigned numaSockets = 1;

    sim::StatGroup grp;
    sim::Counter statWalks;
    sim::Counter statPwcHits;
    sim::Counter statPwcMisses;
    sim::Counter statRemoteSteps; ///< Registered at sockets > 1.

    /** True (and recency bumped) when @p addr is PWC-resident. */
    bool pwcLookup(PAddr addr);
    void pwcInsert(PAddr addr);
};

} // namespace hwdp::cpu

#endif // HWDP_CPU_WALKER_HH
