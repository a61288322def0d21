/**
 * @file
 * The SMU's NVMe host controller (Figure 8).
 *
 * Holds one set of queue descriptor registers per block device (up to
 * 8 per SMU, Figure 9): SQ/CQ base addresses, sizes, pointers, the CQ
 * phase and the doorbell addresses. For each device the OS allocates
 * an isolated, urgent-priority NVMe I/O queue pair with interrupts
 * disabled; completions are detected by snooping the memory write the
 * device performs at CQ base + CQ head. Commands are tagged with the
 * PMSHR entry index so the completion unit can resolve them without
 * any lookup structure.
 */

#ifndef HWDP_CORE_NVME_HOST_CONTROLLER_HH
#define HWDP_CORE_NVME_HOST_CONTROLLER_HH

#include <array>
#include <functional>

#include "sim/sim_object.hh"
#include "ssd/ssd_device.hh"

namespace hwdp::core {

class NvmeHostController : public sim::SimObject
{
  public:
    /** Command-path costs; smuCosts.nvme holds the values. */
    struct Timing
    {
        /** 64 B NVMe command write to host memory. */
        Tick cmdWrite;
        /** Posted PCIe register write (SQ doorbell). */
        Tick doorbell;
        /** Completion-unit protocol handling, in cycles. */
        Cycles completionCycles;
    };

    /** Maximum block devices per SMU: 3-bit device id (Section III-B). */
    static constexpr unsigned maxDevices = 8;

    /** Bits per descriptor register set (for the area model). */
    static constexpr unsigned descriptorBits = 352;

    NvmeHostController(std::string name, sim::EventQueue &eq,
                       const Timing &timing);

    /**
     * Install the queue descriptor registers for @p dev_id: allocates
     * an isolated urgent-priority queue pair on the device with
     * interrupts disabled and arms the CQ-write snooper.
     */
    void configureDevice(unsigned dev_id, ssd::SsdDevice *dev,
                         std::uint16_t queue_depth = 1024);

    bool deviceConfigured(unsigned dev_id) const;

    /** Queue id of the isolated SMU queue on device @p dev_id. */
    std::uint16_t queueIdOf(unsigned dev_id) const
    {
        return descs[dev_id].qid;
    }

    /**
     * Issue a 4 KB read of @p lba on @p dev_id into @p dma_addr,
     * tagged with @p tag (the PMSHR index), with the command generated
     * at logical time @p at (>= now(); ahead of it when the inline
     * fault chain issues from within an earlier event). The doorbell
     * write lands cmdWrite + doorbell later, and device time starts
     * there. @p issued runs when the doorbell rings: an inline hop
     * runs it before issueRead returns, with now() still behind the
     * doorbell tick; otherwise an "nvme.doorbell" event rings it at
     * the doorbell tick. The controller-wide completion callback
     * fires with the tag when the CQ write is snooped and the
     * completion protocol has run.
     */
    void issueRead(unsigned dev_id, Lba lba, PAddr dma_addr,
                   std::uint16_t tag, std::function<void()> issued,
                   Tick at);

    /**
     * Completion delivery to the page miss handler. @p status is the
     * NVMe completion status (0 = success); the handler owns the
     * retry/bounce policy for errors. @p at is the logical time the
     * completion protocol finished. A successful completion with
     * nothing scheduled before @p at is delivered inline from the CQ
     * snoop, so @p at may be ahead of now(); error completions, and
     * any completion the gate declines, arrive through an
     * "nvme.complete" event with @p at == now().
     */
    void setCompletionCallback(
        std::function<void(std::uint16_t tag, std::uint16_t status,
                           Tick at)>
            fn)
    {
        onComplete = std::move(fn);
    }

    const Timing &timing() const { return tm; }

    std::uint64_t readsIssued() const { return statIssued.value(); }
    std::uint64_t errorsSnooped() const { return statErrors.value(); }

    // ---- Host-side observability (never part of simulated state) ----
    std::uint64_t inlineDoorbells() const { return nInlineDoorbells; }
    std::uint64_t eventDoorbells() const { return nEventDoorbells; }
    std::uint64_t inlineCompletions() const { return nInlineCompletions; }
    std::uint64_t eventCompletions() const { return nEventCompletions; }

    /** Checkpoint the counters; descriptor registers are verified. */
    void serialize(sim::Serializer &s);

  private:
    struct Descriptor
    {
        bool valid = false;
        ssd::SsdDevice *dev = nullptr;
        std::uint16_t qid = 0;
    };

    Timing tm;
    std::array<Descriptor, maxDevices> descs;
    std::function<void(std::uint16_t, std::uint16_t, Tick)> onComplete;

    std::uint64_t nInlineDoorbells = 0;
    std::uint64_t nEventDoorbells = 0;
    std::uint64_t nInlineCompletions = 0;
    std::uint64_t nEventCompletions = 0;

    sim::Counter statIssued;
    sim::Counter statCompleted;
    sim::Counter statErrors;

    void onCqWrite(unsigned dev_id, const nvme::CompletionEntry &cqe);
};

} // namespace hwdp::core

#endif // HWDP_CORE_NVME_HOST_CONTROLLER_HH
