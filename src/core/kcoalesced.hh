/**
 * @file
 * kcoalesced: Mosaic-style transparent coalescing daemon.
 *
 * In pageMode=coalesce, demand-paged 4 KB frames (HWDP fast-mmap
 * areas included — the SMU keeps its 4 KB miss granularity) that
 * happen to land contiguously are promoted to 2 MB PMD leaves in the
 * background, khugepaged-style: every period the daemon resumes an
 * incremental cursor over all address spaces, checks a bounded number
 * of naturally aligned 2 MB windows for eligibility (512 present,
 * synchronised PTEs mapping an aligned contiguous run) and collapses
 * the ones that qualify. A promotion keeps the same frames, so it is
 * never a correctness hazard — but the stale 4 KB TLB entries would
 * starve the wide entry forever, so each promoting batch ends with a
 * range shootdown (an IPI per remote socket on multi-socket machines,
 * reusing the PR 7 epoch machinery).
 */

#ifndef HWDP_CORE_KCOALESCED_HH
#define HWDP_CORE_KCOALESCED_HH

#include "os/kthread.hh"

namespace hwdp::os {
class Kernel;
}

namespace hwdp::core {

class Kcoalesced : public os::KThread
{
  public:
    /** Wakeup period. */
    static constexpr Tick wakePeriod = milliseconds(8.0);
    /** 2 MB windows examined per wakeup. */
    static constexpr std::uint64_t batchWindows = 32;

    Kcoalesced(os::Kernel &kernel, unsigned core);

    void batch(std::function<void()> done) override;

    /** See Kpted::setCrossSocketIpis. */
    void setCrossSocketIpis(unsigned n);

    /**
     * hugeCoalesceAbort fault site: consulted once per window that
     * passed the eligibility check; returning true skips the
     * promotion (the window stays 4 KB-mapped until a later pass).
     */
    void setAbortHook(std::function<bool()> fn)
    {
        abortHook = std::move(fn);
    }

    std::uint64_t windowsScanned() const { return statWindows.value(); }
    std::uint64_t windowsPromoted() const { return statPromoted.value(); }
    std::uint64_t promotionsAborted() const { return statAborts.value(); }

    /** Checkpoint the kthread state and scan cursor. */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    unsigned crossSocketIpis = 0;
    std::function<bool()> abortHook;

    /** Incremental scan cursor: address-space index + next VA. */
    std::uint64_t cursorAs = 0;
    VAddr cursorVa = 0;

    sim::Counter statWindows;
    sim::Counter statPromoted;
    sim::Counter statAborts;
    sim::Counter statIpis; ///< Registered only when multi-socket.
};

} // namespace hwdp::core

#endif // HWDP_CORE_KCOALESCED_HH
