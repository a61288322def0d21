/**
 * @file
 * Page Miss Status Holding Registers (PMSHR).
 *
 * A fully-associative CAM keyed by PTE physical address — the unique
 * identifier of a virtual page's miss (Section III-C). Duplicate
 * misses to the same page coalesce onto the existing entry, so no
 * page aliases can be created by concurrent threads. The entry count
 * bounds the SMU's outstanding I/O; the paper picks 32 empirically
 * (the ablation bench sweeps this).
 */

#ifndef HWDP_CORE_PMSHR_HH
#define HWDP_CORE_PMSHR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/mmu.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::core {

class FreePageQueue;

class Pmshr
{
  public:
    struct Entry
    {
        bool valid = false;
        PAddr pteAddr = 0;
        cpu::PageMissRequest req;
        Pfn pfn = 0;
        Tick started = 0;
        /** An NVMe error completion was already retried once. */
        bool retried = false;
        /** Served by the CXL tier buffer (no NVMe command issued). */
        bool fromTier = false;
        /** The free page queue the frame came from; a bounce returns it. */
        FreePageQueue *fpq = nullptr;
        /** Coalesced waiters (pending page-table walks). */
        std::vector<std::function<void(bool)>> waiters;
    };

    explicit Pmshr(unsigned n_entries = 32);

    /** CAM lookup by PTE address; -1 when absent. */
    int lookup(PAddr pte_addr) const;

    /** Allocate an entry; -1 when full. */
    int allocate(PAddr pte_addr);

    Entry &entry(int idx);
    const Entry &entry(int idx) const;

    /** Whether slot @p idx currently holds a valid entry (entry()
     *  panics on invalid slots; the invariant checker probes first). */
    bool
    validAt(int idx) const
    {
        return idx >= 0 &&
               static_cast<std::size_t>(idx) < entries.size() &&
               entries[static_cast<std::size_t>(idx)].valid;
    }

    /** Release an entry after broadcast. */
    void invalidate(int idx);

    unsigned capacity() const
    {
        return static_cast<unsigned>(entries.size());
    }
    unsigned occupancy() const { return used; }
    bool full() const { return used == entries.size(); }

    /** Register-file size in bits (for the area model, Section VI-D). */
    static constexpr unsigned entryBits = 300;

    /**
     * Fault injection: when the hook returns true, allocate() behaves
     * as if the CAM were full (forces the bounce-to-OS path).
     */
    void setFullHook(std::function<bool()> fn)
    {
        fullHook = std::move(fn);
    }

    /**
     * Verify the CAM geometry. Entries hold waiter closures and
     * in-flight requests, so the CAM must be empty at quiesce.
     */
    void serialize(sim::Serializer &s);

  private:
    std::function<bool()> fullHook;
    std::vector<Entry> entries;
    unsigned used = 0;
};

} // namespace hwdp::core

#endif // HWDP_CORE_PMSHR_HH
