/**
 * @file
 * ktierd: the background CXL-tier eviction thread.
 *
 * Periodically checks every socket's memory-buffer tier and, above
 * the high occupancy watermark, clock-scans cold frames out until the
 * buffer is back under the low watermark or the batch budget is
 * spent: clean frames are dropped (the SSD copy is current), dirty
 * frames are written back through the block layer first. Admission on
 * the fault path never evicts synchronously — a full buffer just
 * rejects the admit and kicks this thread, the same shape as the SMU
 * free-queue / kpoold contract.
 */

#ifndef HWDP_TIER_KTIERD_HH
#define HWDP_TIER_KTIERD_HH

#include <vector>

#include "os/kernel.hh"
#include "os/kthread.hh"
#include "tier/cxl_buffer.hh"

namespace hwdp::tier {

class Ktierd : public os::KThread
{
  public:
    /** Wakeup period. */
    static constexpr Tick wakePeriod = milliseconds(2.0);
    /** Frames examined per wakeup across all tiers. */
    static constexpr std::uint64_t maxBatch = 256;

    /**
     * @param tiers One buffer per socket, in socket order; each keys
     *              frames by global block-layer device index, so
     *              evictions submit straight to the block layer.
     */
    Ktierd(os::Kernel &kernel, std::vector<CxlBuffer *> tiers,
           unsigned core);

    void batch(std::function<void()> done) override;

    /**
     * Fault-injection hook (tier_writeback_stall): extra delay before
     * a dirty eviction's write I/O is submitted.
     */
    void setWritebackStallHook(std::function<Tick()> fn)
    {
        stallHook = std::move(fn);
    }

    std::uint64_t framesScanned() const { return statScanned.value(); }

    /** Checkpoint the kthread state. */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    std::vector<CxlBuffer *> tiers;
    std::function<Tick()> stallHook;
    sim::Counter statScanned;
    sim::Counter statWritebacks;

    /** Evict from @p t within @p budget; returns frames examined. */
    std::uint64_t evictFrom(CxlBuffer &t, std::uint64_t budget,
                            std::uint64_t &writebacks);
};

} // namespace hwdp::tier

#endif // HWDP_TIER_KTIERD_HH
