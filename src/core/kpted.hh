/**
 * @file
 * kpted: the background page-table-entry metadata-sync thread.
 *
 * Periodically (default one second in the paper; the period scales
 * with the simulated memory size) scans the page tables of every VMA
 * that carries the fast-mmap flag, in address-space order, for PTEs
 * with both present and LBA bits set — pages whose
 * misses the hardware handled — and synchronises OS metadata for
 * them: LRU insertion, page-struct updates, reverse mapping, page
 * cache insertion; finally it clears the PTE's LBA bit (Section IV-C).
 * The scan is guided by the LBA bits kpted itself clears in the PMD
 * and PUD entries, so clean subtrees are skipped; the ablation bench
 * compares against an exhaustive scan.
 */

#ifndef HWDP_CORE_KPTED_HH
#define HWDP_CORE_KPTED_HH

#include "os/kernel.hh"
#include "os/kthread.hh"

namespace hwdp::core {

class Kpted : public os::KThread
{
  public:
    Kpted(os::Kernel &kernel, unsigned core, Tick period,
          bool guided_scan = true);

    void batch(std::function<void()> done) override;

    /**
     * Synchronous range sync (the munmap/msync barrier): scans
     * [lo, hi) of @p as on @p caller_core, charging kpted phases
     * there, then fires @p done.
     */
    void syncRange(os::AddressSpace &as, VAddr lo, VAddr hi,
                   unsigned caller_core, std::function<void()> done);

    std::uint64_t pagesSynced() const { return statSynced.value(); }
    std::uint64_t entriesVisited() const { return statVisited.value(); }

    /**
     * Multi-socket: every sync batch that rewrote at least one PTE
     * ends with one batched TLB/PWC shootdown round, an IPI per
     * remote socket. @p n is sockets - 1; 0 (default) charges
     * nothing, keeping single-socket timing untouched.
     */
    void setCrossSocketIpis(unsigned n);

    /** Checkpoint the kthread state. */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    bool guided;
    unsigned crossSocketIpis = 0;
    sim::Counter statSynced;
    sim::Counter statVisited;
    sim::Counter statIpis; ///< Registered only when multi-socket.

    /** One scan pass over a range; returns (synced, visited). */
    std::pair<std::uint64_t, std::uint64_t>
    scan(os::AddressSpace &as, VAddr lo, VAddr hi);

    /**
     * Charge a pass over @p visited entries that synced @p synced
     * pages on logical core @p on_core, plus the pass's shootdown
     * round; returns the time it takes.
     */
    Tick charge(unsigned on_core, std::uint64_t synced,
                std::uint64_t visited);
};

} // namespace hwdp::core

#endif // HWDP_CORE_KPTED_HH
