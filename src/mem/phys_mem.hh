/**
 * @file
 * Physical memory frame pool.
 *
 * Models the machine's DRAM as a pool of 4 KB frames. Only frame
 * accounting is simulated — page payloads never exist. The OS reclaim
 * logic and the SMU free-page queue both draw from this pool, so the
 * pool is the ground truth for "how much memory the machine has",
 * which is what the paper's dataset:memory ratios control.
 *
 * Multi-socket machines partition the allocatable range into one
 * contiguous span per socket (the usual SRAT layout): socketOf() is a
 * division, and per-socket free lists let kpoold keep each socket's
 * free-page queue filled with home-socket frames. A single-socket
 * machine has exactly one list and behaves byte-identically to the
 * pre-NUMA pool.
 */

#ifndef HWDP_MEM_PHYS_MEM_HH
#define HWDP_MEM_PHYS_MEM_HH

#include <cstdint>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace hwdp::mem {

class PhysMem : public sim::SimObject
{
  public:
    /** Sentinel for "no frame". */
    static constexpr Pfn invalidPfn = ~Pfn(0);

    /**
     * Frames a System reserves above its allocatable memory for the
     * kernel image and fixed structures (2 MB).
     */
    static constexpr std::uint64_t systemReserved = 512;

    /**
     * @param n_frames Total number of 4 KB frames in the machine.
     * @param reserved Frames set aside for the kernel image / fixed
     *                 structures; never allocatable.
     * @param n_sockets DRAM nodes; the allocatable range is split into
     *                  this many contiguous spans.
     */
    PhysMem(sim::EventQueue &eq, std::uint64_t n_frames,
            std::uint64_t reserved = 0, unsigned n_sockets = 1);

    /** Allocate one frame; returns invalidPfn when exhausted. */
    Pfn alloc() { return alloc(0); }

    /**
     * Allocate preferring @p socket, falling back to the next socket
     * in index order when the preferred node is dry (the kernel's
     * fault path must not OOM while a remote node still has frames).
     * Returns invalidPfn only when every node is exhausted.
     */
    Pfn alloc(unsigned socket);

    /**
     * Allocate strictly on @p socket; invalidPfn when that node is
     * dry. kpoold uses this so every frame it donates to socket s's
     * free-page queue is homed on s (an invariant checkInvariants
     * audits).
     */
    Pfn allocOnSocket(unsigned socket);

    /**
     * Allocate a naturally aligned run of 2^@p order frames on
     * @p socket (the 2 MB huge-page path uses order 9). Returns the
     * base PFN, or invalidPfn when no fully free aligned window exists
     * on that node. The frames are claimed in the allocation bitmap;
     * their free-list entries go stale and are skipped lazily by
     * alloc(), so the single-frame path stays byte-identical whenever
     * this is never called (pageMode = off).
     */
    Pfn allocContig(unsigned socket, unsigned order);

    /** Return a frame to its home node's pool. @pre pfn was allocated. */
    void free(Pfn pfn);

    /** True when @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const;

    /** Home NUMA node of @p pfn (contiguous-span partition). */
    unsigned socketOf(Pfn pfn) const
    {
        unsigned s = static_cast<unsigned>(pfn / socketSpan);
        return s < nSockets ? s : nSockets - 1;
    }

    unsigned sockets() const { return nSockets; }

    std::uint64_t totalFrames() const { return nFrames; }
    std::uint64_t freeFrames() const
    {
        std::uint64_t n = 0;
        for (auto c : freeCounts)
            n += c;
        return n;
    }
    std::uint64_t allocatedFrames() const
    {
        return nFrames - reservedFrames - freeFrames();
    }
    std::uint64_t reservedCount() const { return reservedFrames; }

    /** Total bytes of allocatable memory. */
    std::uint64_t capacityBytes() const
    {
        return (nFrames - reservedFrames) * pageSize;
    }

    /**
     * Checkpoint the allocation state. Each free list is ordered —
     * alloc() pops the back — so it round-trips verbatim; frame count
     * and reservation are boot structure and only verified.
     */
    void serialize(sim::Serializer &s);

  private:
    std::uint64_t nFrames;
    std::uint64_t reservedFrames;
    unsigned nSockets;
    std::uint64_t socketSpan; ///< Allocatable frames per socket span.
    std::vector<std::vector<Pfn>> freeLists;
    std::vector<bool> allocated;

    /**
     * Live (non-stale) entries per free list. Equal to the list size
     * until allocContig claims frames out of the middle; alloc() then
     * skips the stale entries lazily and serialize() compacts them.
     */
    std::vector<std::uint64_t> freeCounts;

    /** Free frames per naturally aligned 512-frame window. */
    std::vector<std::uint16_t> windowFree;

    void rebuildWindowCounts();

    /** Take the next live frame off socket @p s's non-empty list. */
    Pfn popFree(unsigned s);

    sim::Counter allocs;
    sim::Counter frees;
    sim::Counter failedAllocs;
};

} // namespace hwdp::mem

#endif // HWDP_MEM_PHYS_MEM_HH
