/**
 * @file
 * kpoold: the background free-page-queue refill thread.
 *
 * Periodically tops the SMU's free page queue up with frames from the
 * page allocator (Section IV-D). When the SMU finds the queue empty
 * it bounces the miss to the OS fault path, which performs a refill
 * overlapped with that fault's device I/O (the AIOS trick); kpoold's
 * job is to make those slow OS-handled cases rare — the paper reports
 * it removes 44.3–78.4% of them, which the ablation bench reproduces.
 */

#ifndef HWDP_CORE_KPOOLD_HH
#define HWDP_CORE_KPOOLD_HH

#include <vector>

#include "core/free_page_queue.hh"
#include "os/kthread.hh"
#include "os/kernel.hh"

namespace hwdp::core {

class Kpoold : public os::KThread
{
  public:
    /**
     * @param fpqs      The queues to keep filled (one in the global
     *                  design; one per core with the Section V
     *                  per-core-queue extension).
     * @param max_batch Pages donated per wakeup (with the period this
     *                  sets the refill bandwidth; the paper's 4 ms /
     *                  250 MB/s operating point is the default shape).
     */
    Kpoold(os::Kernel &kernel, std::vector<FreePageQueue *> fpqs,
           unsigned core, Tick period, std::uint64_t max_batch = 1024);

    /**
     * Home socket of each queue in the same order as the constructor's
     * fpqs (multi-socket machines). Refills draw strictly from the
     * queue's home node — a dry node starves its queue and bounces
     * misses to the OS rather than polluting it with remote frames,
     * preserving the frame-home == owning-FPQ invariant. Unset (the
     * default) treats every queue as socket 0.
     */
    void setSocketTags(std::vector<unsigned> tags);

    void batch(std::function<void()> done) override;

    /**
     * Refill performed by the OS fault path, overlapped with the
     * fault's device I/O: queued as kernel work on @p faulting_core.
     */
    void refillOverlapped(unsigned faulting_core);

    /** Boot-time fill of the queue and prefetch buffer (untimed). */
    void prime();

    std::uint64_t pagesDonated() const { return statDonated.value(); }
    std::uint64_t overlappedRefills() const { return statOverlapped.value(); }

    /** Checkpoint the kthread state. */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    std::vector<FreePageQueue *> fpqs;
    std::vector<unsigned> socketTags; ///< Empty: all queues on socket 0.
    std::uint64_t maxBatch;
    sim::Counter statDonated;
    sim::Counter statOverlapped;

    unsigned
    socketOfQueue(std::size_t qi) const
    {
        return qi < socketTags.size() ? socketTags[qi] : 0;
    }

    /** Move up to @p want home-socket frames into @p q. */
    std::uint64_t donateTo(FreePageQueue &q, std::uint64_t want,
                           unsigned socket);

    /** Spread up to @p want frames across all queues. */
    std::uint64_t donate(std::uint64_t want);
};

} // namespace hwdp::core

#endif // HWDP_CORE_KPOOLD_HH
