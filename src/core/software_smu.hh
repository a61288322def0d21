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
 * metadata deferred to kpted). It drives the hardware's own
 * MissEngine and adds only its costs and delivery (DESIGN.md §6k).
 */

#ifndef HWDP_CORE_SOFTWARE_SMU_HH
#define HWDP_CORE_SOFTWARE_SMU_HH

#include <memory>
#include <vector>

#include "core/free_page_queue.hh"
#include "core/miss_engine.hh"
#include "os/kernel.hh"
#include "ssd/ssd_device.hh"

namespace hwdp::core {

class SoftwareSmu : public sim::SimObject
{
  public:
    /** @p queue is built first, so its stat group precedes ours. */
    SoftwareSmu(std::string name, sim::EventQueue &eq, os::Kernel &kernel,
                std::unique_ptr<FreePageQueue> queue);

    /** Allocate this emulation's isolated queue pair on a device. */
    void configureDevice(unsigned dev_id, ssd::SsdDevice *dev,
                         std::uint16_t queue_depth = 1024);

    /**
     * Take a fault on an LBA-augmented PTE of this socket, @p req as
     * the MMU would build it; false sends it down the normal path.
     */
    bool handleFault(os::Thread &t, cpu::PageMissRequest req,
                     std::function<void()> resume);

    /** Attach the socket's CXL buffer (tierMode=cxl). */
    void setTier(tier::CxlBuffer *t, unsigned dev_base);

    FreePageQueue &freePageQueue() { return *fpq; }
    MissEngine &missEngine() { return engine; }
    const Pmshr &pmshr() const { return engine.pmshr(); }

    /** Whether local device @p d has a queue pair; its id. */
    bool deviceConfigured(unsigned d) const { return devices.at(d).valid; }
    std::uint16_t queueIdOf(unsigned d) const { return devices.at(d).qid; }

    std::uint64_t handled() const { return engine.stats().handled.value(); }
    sim::Histogram &missLatencyUs() { return engine.stats().latencyUs; }

    /** Checkpoint the queue; the table must be empty (quiesced). */
    void serialize(sim::Serializer &s);

  private:
    struct DeviceSlot
    {
        bool valid = false;
        ssd::SsdDevice *dev = nullptr;
        std::uint16_t qid = 0;
    };

    os::Kernel &kernel;
    std::unique_ptr<FreePageQueue> fpq;
    MissEngine engine;
    std::vector<DeviceSlot> devices;

    /** A fill's completion; @p slot is the NVMe command id. */
    void onInterrupt(int slot, std::uint16_t status);
    /** Build + submit the miss's read command, then mwait. */
    void submitRead(int slot);
    /** Update the page table and resume the miss's waiters. */
    void finish(int slot);
};

} // namespace hwdp::core

#endif // HWDP_CORE_SOFTWARE_SMU_HH
