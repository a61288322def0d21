/**
 * @file
 * The Storage Management Unit (SMU) — the paper's core contribution.
 *
 * One SMU per socket. The page miss handler (Figure 7) receives miss
 * requests from MMUs, coalesces duplicates in the PMSHR, fetches a
 * free page frame from the free page queue (prefetch-buffered), has
 * the NVMe host controller issue a 4 KB read on the device's isolated
 * urgent queue, snoops the completion, updates the PTE/PMD/PUD in
 * place and broadcasts completion to the stalled walkers — all
 * without a single instruction of OS code on the critical path.
 *
 * When the PMSHR is full or the free page queue is empty the miss is
 * bounced back to the MMU, which raises a conventional page fault
 * (the OS then also refills the queue, Section IV-D).
 *
 * The lifecycle is the MissEngine the software emulation drives too;
 * the SMU adds its Fig. 11b costs and delivery (DESIGN.md §6k).
 */

#ifndef HWDP_CORE_SMU_HH
#define HWDP_CORE_SMU_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/free_page_queue.hh"
#include "core/miss_engine.hh"
#include "core/nvme_host_controller.hh"
#include "cpu/mmu.hh"
#include "os/kernel.hh"

namespace hwdp::core {

/**
 * Fig. 11b's hardware costs: calibration constants of the SMU and its
 * NVMe host controller, not machine facts, so no MachineConfig field
 * sets them. Cycle counts run on the machine clock (cyclePeriod).
 */
struct SmuCosts
{
    /** MMU-to-SMU request transfer (two register writes). */
    Cycles requestRegWrites = 2;
    /** PMSHR CAM lookup. */
    Cycles camLookup = 5;
    /** Writing the allocated PFN into the PMSHR entry. */
    Cycles pfnWrite = 1;
    /** PTE + PMD + PUD read/update (three LLC read+writes). */
    Cycles ptUpdateCycles = 97;
    /** Broadcast to MMUs + walk completion check. */
    Cycles notifyCycles = 2;

    /** Exposed memory read when the prefetch buffer is empty. */
    Tick memRoundTrip = nanoseconds(90);

    /**
     * Zeroing a 4 KB frame for a first-touch anonymous miss
     * (Section V): the SMU bypasses the NVMe path and a hardware
     * zero engine prepares the frame.
     */
    Tick zeroFillLatency = nanoseconds(300);

    /**
     * Cross-socket request round trip. The SMU is per-socket, so a
     * miss from a core on another socket (the kernel's core-to-socket
     * map) routes across the interconnect to the owning SMU and pays
     * this on top of the register-write delivery.
     */
    Tick remoteRequest = nanoseconds(120.0);

    /** 64 B command write, SQ doorbell, 2-cycle completion unit. */
    NvmeHostController::Timing nvme{nanoseconds(77.16),
                                    nanoseconds(1.60), 2};
};

inline constexpr SmuCosts smuCosts{};

class Smu : public sim::SimObject, public cpu::PageMissHandlerIface
{
  public:
    struct Params
    {
        unsigned pmshrEntries = 32;
        std::uint64_t freeQueueCapacity = 4096;

        /**
         * Sequential next-page prefetch (Section V, "Prefetching
         * Support", left as future work by the paper): on a miss,
         * also fill the following page when its PTE is still
         * LBA-augmented. A later touch either finds the PTE present
         * or coalesces onto the in-flight PMSHR entry.
         */
        bool sequentialPrefetch = false;

        /**
         * Per-core free page queues (Section V, "Enforcing OS-level
         * Resource Management Policy", future work in the paper): one
         * queue per core the socket serves, each thread context
         * drawing from its own, so an OS memory policy (NUMA, cgroups,
         * coloring) can be enforced per core. freeQueueCapacity is
         * split across the queues.
         */
        bool perCoreFreeQueues = false;
    };

    Smu(std::string name, sim::EventQueue &eq, unsigned sid,
        const Params &params, os::Kernel &kernel);

    /** Install queue descriptor registers for a block device. */
    void configureDevice(unsigned dev_id, ssd::SsdDevice *dev);

    // ---- cpu::PageMissHandlerIface -------------------------------------
    void handleMiss(cpu::PageMissRequest req, Tick at) override;

    /** Queue serving @p core (queue 0 in the default global mode). */
    FreePageQueue &freePageQueue(unsigned core = 0);
    unsigned numFreeQueues() const
    {
        return static_cast<unsigned>(fpqs.size());
    }
    /** All queues (kpoold refills every one). */
    std::vector<FreePageQueue *> freePageQueues();

    MissEngine &missEngine() { return engine; }
    Pmshr &pmshr() { return engine.pmshr(); }
    NvmeHostController &hostController() { return nvme; }

    /** Invoked when a pop finds the free page queue empty. */
    void setQueueEmptyCallback(std::function<void()> fn)
    {
        onQueueEmpty = std::move(fn);
    }

    /** SMU barrier (Section IV-C), as munmap waits on it. */
    void barrier(std::function<void()> done)
    {
        engine.barrier(std::move(done));
    }

    std::uint64_t handled() const { return ms().handled.value(); }
    std::uint64_t zeroFills() const { return ms().zeroFills.value(); }
    std::uint64_t prefetches() const { return statPrefetch.value(); }
    std::uint64_t coalesced() const { return ms().coalesced.value(); }
    std::uint64_t rejectedQueueEmpty() const { return ms().queueEmpty.value(); }
    std::uint64_t rejectedPmshrFull() const { return ms().full.value(); }
    std::uint64_t ioRetries() const { return ms().ioRetries.value(); }

    /**
     * Misses whose lookup ran inline instead of via the smu.lookup
     * event (host-side observability; never part of simulated state).
     */
    std::uint64_t inlineMisses() const { return nInlineMisses; }
    std::uint64_t rejectedIoError() const
    {
        return ms().rejectedIoError.value();
    }
    sim::Histogram &missLatencyUs() { return engine.stats().latencyUs; }

    /**
     * Checkpoint the free page queues, PMSHR bookkeeping and host
     * controller. Requires no miss or barrier outstanding (quiesced).
     */
    void serialize(sim::Serializer &s);

  private:
    unsigned socketId;
    Params prm;
    os::Kernel &kernel;
    MissEngine engine;
    std::vector<std::unique_ptr<FreePageQueue>> fpqs;
    NvmeHostController nvme;
    std::function<void()> onQueueEmpty;

    /** Host-side inline-request count; never serialized. */
    std::uint64_t nInlineMisses = 0;

    sim::Counter statPrefetch;
    sim::Counter statRemoteRequests; ///< Registered at sockets > 1.

    const MissEngine::Stats &ms() const { return engine.stats(); }

    /**
     * Whether an SMU hop may run inline. Not with sequentialPrefetch:
     * the prefetch spawns from inside the lookup, and its SQE push
     * order against the demand miss depends on event sequencing, so
     * every SMU hop takes its event.
     */
    bool inlineOk() const { return !prm.sequentialPrefetch; }

    /** @p c cycles of the machine clock. */
    static Tick cycles(Cycles c) { return c * cyclePeriod; }

    /**
     * The lookup at logical time @p at: == now() from the smu.lookup
     * event and for prefetches, ahead of it when the request gate ran
     * it inline, under the guarantee that no event executes before
     * @p at. Structure mutations (PMSHR, free page queue, counters)
     * run immediately — nothing can observe them before @p at — and
     * each later hop is an EventQueue::hop.
     */
    void lookupStepAt(cpu::PageMissRequest req, Tick started, Tick at);

    /**
     * Run @p fn, which re-enters walker or kernel code expecting
     * now() == @p at: directly on the event path, otherwise through
     * an event at @p at. That event is next in line (the request gate
     * checked @p at against the next event), so the execution order
     * matches the event path.
     */
    template <typename F>
    void
    callAt(Tick at, F &&fn)
    {
        if (at == now())
            fn();
        else
            eq.post(at, std::forward<F>(fn), "smu.reject");
    }

    /**
     * Completion at logical time @p at: == now() on the event path,
     * >= now() when delivered inline by the snooping completion unit
     * (successful completions only).
     */
    void onIoCompleteAt(std::uint16_t tag, std::uint16_t status,
                        Tick at);

    /** Issue a next-page prefetch fill for the page after @p req. */
    void maybePrefetchNext(const cpu::PageMissRequest &req);
};

} // namespace hwdp::core

#endif // HWDP_CORE_SMU_HH
