/**
 * @file
 * Three-level cache hierarchy with a shared LLC.
 *
 * Geometry defaults follow the evaluation machine (Xeon E5-2640 v3):
 * 32 KB L1I + 32 KB L1D and 256 KB L2 per physical core, 20 MB shared
 * LLC. Accesses return the service latency in core cycles and record
 * per-privilege-mode hit/miss counters for the pollution figures.
 */

#ifndef HWDP_MEM_CACHE_HIERARCHY_HH
#define HWDP_MEM_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/types.hh"

namespace hwdp::mem {

/** Tunable geometry and latency parameters. */
struct CacheParams
{
    std::uint64_t l1iBytes = 32 * 1024;
    unsigned l1iAssoc = 8;
    std::uint64_t l1dBytes = 32 * 1024;
    unsigned l1dAssoc = 8;
    std::uint64_t l2Bytes = 256 * 1024;
    unsigned l2Assoc = 8;
    std::uint64_t llcBytes = 20 * 1024 * 1024;
    unsigned llcAssoc = 20;

    Cycles l1Latency = 4;
    Cycles l2Latency = 12;
    Cycles llcLatency = 42;
    Cycles dramLatency = 230;
};

/** Outcome of one hierarchy access. */
struct CacheAccessResult
{
    Cycles latency = 0;
    bool l1Miss = false;
    bool l2Miss = false;
    bool llcMiss = false;
};

/** Aggregate outcome of one batched hierarchy access run. */
struct CacheBatchResult
{
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;

    /** Tag-array probes the run issued across all levels. */
    std::uint64_t
    probes(std::uint64_t n) const
    {
        return n + l1Misses + l2Misses;
    }
};

class CacheHierarchy
{
  public:
    CacheHierarchy(unsigned n_cores, const CacheParams &params);

    /** Per-mode miss counters (for Figures 4 and 14). */
    struct ModeCounters
    {
        std::uint64_t l1iAccesses = 0, l1iMisses = 0;
        std::uint64_t l1dAccesses = 0, l1dMisses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t llcMisses = 0;
    };

    /**
     * Access one line. Defined inline: the MMU's data accesses and the
     * page walker's reads land here one line at a time, so the L1-hit
     * path must not cost a cross-TU call (compute bursts and kernel
     * phases go through accessBatch). The cache arrays are stored by
     * value so the tag scan starts after a single index, not a
     * unique_ptr chase.
     * @param core    Physical core index (selects private caches).
     * @param addr    Byte address; only the line address matters.
     * @param is_inst True for instruction fetch (uses the L1I).
     * @param mode    Privilege mode for attribution.
     */
    CacheAccessResult
    access(unsigned core, std::uint64_t addr, bool is_inst, ExecMode mode)
    {
        if (core >= l1d.size()) [[unlikely]]
            badCore(core);

        CacheAccessResult r;
        ModeCounters &mc = modeCtrs[static_cast<unsigned>(mode)];
        CacheArray &first = is_inst ? l1i[core] : l1d[core];

        if (is_inst)
            ++mc.l1iAccesses;
        else
            ++mc.l1dAccesses;

        if (first.access(addr)) {
            r.latency = prm.l1Latency;
            return r;
        }
        r.l1Miss = true;
        if (is_inst)
            ++mc.l1iMisses;
        else
            ++mc.l1dMisses;

        if (l2[core].access(addr)) {
            r.latency = prm.l2Latency;
            return r;
        }
        r.l2Miss = true;
        ++mc.l2Misses;

        if (llc.access(addr)) {
            r.latency = prm.llcLatency;
            return r;
        }
        r.llcMiss = true;
        ++mc.llcMisses;
        r.latency = prm.dramLatency;
        return r;
    }

    /**
     * Access a run of @p n lines level-major: the whole run is
     * streamed through the L1, the compacted miss list through the
     * L2, its misses through the LLC — three dense passes whose loads
     * the host can overlap, instead of n dependent three-level
     * descents. Simulated state and every counter end up bit-identical
     * to n sequential access() calls: each array sees the same
     * addresses in the same relative order (a level's access sequence
     * is a subsequence of the run, and the arrays share no state), so
     * only the interleaving *between* independent arrays changes.
     * Used by the kernel phases and the compute bursts, whose
     * footprints are natural line runs; per-line latencies are not
     * materialised (the phases charge time by cycle budgets, and a
     * burst rebuilds its stall from the per-level miss counts).
     */
    CacheBatchResult accessBatch(unsigned core, const std::uint64_t *addrs,
                                 std::size_t n, bool is_inst,
                                 ExecMode mode);

    const ModeCounters &counters(ExecMode mode) const
    {
        return modeCtrs[static_cast<unsigned>(mode)];
    }

    void resetCounters();

    const CacheParams &params() const { return prm; }

    /** Checkpoint every array and the per-mode miss counters. */
    void serialize(sim::Serializer &s);

  private:
    CacheParams prm;
    std::vector<CacheArray> l1i;
    std::vector<CacheArray> l1d;
    std::vector<CacheArray> l2;
    CacheArray llc;
    ModeCounters modeCtrs[2];

    // Batch scratch, reused across calls (no steady-state allocation):
    // L1 misses, L2 misses, and a sink for the LLC's miss list.
    std::vector<std::uint64_t> batchMiss1;
    std::vector<std::uint64_t> batchMiss2;
    std::vector<std::uint64_t> batchMiss3;

    [[noreturn]] void badCore(unsigned core) const;
};

} // namespace hwdp::mem

#endif // HWDP_MEM_CACHE_HIERARCHY_HH
