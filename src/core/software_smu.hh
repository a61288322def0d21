/**
 * @file
 * Software-emulated SMU (the paper's real-machine prototype, VI-A).
 *
 * A kernel-resident emulation of the SMU used to evaluate HWDP on a
 * real x86 machine and, in Figure 17, as the "SW-only" baseline the
 * hardware is compared against. At the early stage of the page fault
 * handler a routine checks the PTE's LBA bit; if set it jumps to a
 * function that emulates the SMU — software PMSHR check/insert, NVMe
 * command construction on an isolated queue — and then waits on the
 * completion with monitor/mwait. The interrupt handler merely touches
 * the monitored address; the emulation resumes, completes the miss
 * and updates the PTE exactly as the hardware would (LBA bit kept,
 * metadata deferred to kpted).
 */

#ifndef HWDP_CORE_SOFTWARE_SMU_HH
#define HWDP_CORE_SOFTWARE_SMU_HH

#include <unordered_map>
#include <vector>

#include "core/free_page_queue.hh"
#include "os/kernel.hh"
#include "ssd/ssd_device.hh"

namespace hwdp::tier {
class CxlBuffer;
}

namespace hwdp::core {

class SoftwareSmu : public sim::SimObject
{
  public:
    SoftwareSmu(std::string name, sim::EventQueue &eq, os::Kernel &kernel,
                FreePageQueue &fpq);

    /** Allocate this emulation's isolated queue pair on a device. */
    void configureDevice(unsigned dev_id, ssd::SsdDevice *dev,
                         std::uint16_t queue_depth = 1024);

    /** Register as the kernel's early-fault interceptor. */
    void install();

    /**
     * One emulated-SMU fault check, callable by an external
     * dispatcher: multi-socket machines run one emulation per socket
     * and System installs a single interceptor that routes by the
     * PTE's socket-id field instead of calling install() on any one
     * of them. Semantics identical to the installed interceptor.
     */
    bool
    tryIntercept(os::Thread &t, os::AddressSpace &as, VAddr vaddr,
                 os::pte::Entry e, std::function<void()> resume)
    {
        return intercept(t, as, vaddr, e, std::move(resume));
    }

    /**
     * Attach the socket's CXL memory-buffer tier (tierMode=cxl). The
     * emulation's device ids are socket-local; @p dev_base maps them
     * onto the tier's global block-layer indices. A hit skips the NVMe
     * command entirely: the emulation mwaits on the buffer load and
     * the completion runs the same wake + PTE-update phases.
     */
    void setTier(tier::CxlBuffer *t, unsigned dev_base);

    /**
     * Tier-served misses: a registered counter once a tier is
     * attached, so it is dumped and checkpointed with the others.
     */
    std::uint64_t tierHits() const { return statTierHits.value(); }

    std::uint64_t handled() const { return statHandled.value(); }
    std::uint64_t coalesced() const { return statCoalesced.value(); }
    std::uint64_t queueEmptyBounces() const
    {
        return statQueueEmpty.value();
    }
    std::uint64_t ioRetries() const { return statIoRetry.value(); }
    std::uint64_t rejectedIoError() const
    {
        return statRejectIoError.value();
    }
    sim::Histogram &missLatencyUs() { return statLatency; }

    /**
     * Checkpoint the cid allocator. In-flight emulated
     * misses hold closures, so both tables must be empty (quiesced);
     * the device slots are verified.
     */
    void serialize(sim::Serializer &s);

  private:
    struct DeviceSlot
    {
        bool valid = false;
        ssd::SsdDevice *dev = nullptr;
        std::uint16_t qid = 0;
    };

    struct Inflight
    {
        os::Thread *t;
        os::AddressSpace *as;
        VAddr vaddr;
        Pfn pfn;
        Tick started;
        unsigned devId = 0;
        Lba lba = 0;
        bool retried = false;
        /** Served by the CXL tier buffer (no NVMe command issued). */
        bool fromTier = false;
        std::function<void()> resume;
        /** Coalesced faulters: (thread, resume). */
        std::vector<std::pair<os::Thread *, std::function<void()>>>
            waiters;
    };

    os::Kernel &kernel;
    FreePageQueue &fpq;
    std::vector<DeviceSlot> devices;
    std::unordered_map<std::uint16_t, Inflight> inflight; // by cid
    std::unordered_map<std::uint64_t, std::uint16_t> byPage;
    std::uint16_t nextCid = 0;

    /** CXL tier (nullptr at tierMode=off — zero behavior change). */
    tier::CxlBuffer *tierBuf = nullptr;
    unsigned tierDevBase = 0;

    sim::Counter statHandled;
    sim::Counter statCoalesced;
    sim::Counter statQueueEmpty;
    sim::Counter statIoRetry;
    sim::Counter statRejectIoError;
    sim::Histogram statLatency;
    sim::Counter statTierHits; ///< Registered when a tier is attached.

    bool intercept(os::Thread &t, os::AddressSpace &as, VAddr vaddr,
                   os::pte::Entry e, std::function<void()> resume);
    void onInterrupt(std::uint16_t cid, std::uint16_t status);

    /**
     * Take miss @p cid out of both tables. Called from the callback
     * that resumes its waiters, so until then a new faulter on the
     * page still joins the miss instead of issuing a second read.
     */
    Inflight retire(std::uint16_t cid);

    /** Build + submit the read command, then mwait on @p core. */
    void submitRead(unsigned dev_id, std::uint16_t cid, Lba lba,
                    Pfn pfn, unsigned core);

    static std::uint64_t pageKey(const os::AddressSpace &as, VAddr va);
};

} // namespace hwdp::core

#endif // HWDP_CORE_SOFTWARE_SMU_HH
