/**
 * @file
 * Event-driven NVMe SSD device model.
 *
 * The device owns a set of I/O queue pairs. Hosts push submission
 * entries into a queue pair's SQ ring and ring the SQ doorbell; the
 * device fetches commands (priority queues first), services them on a
 * set of parallel internal channels, DMAs the data, writes a CQ entry
 * and then either raises an interrupt (the kernel's queues) or lets
 * the registered listener observe the CQ write directly (the SMU's
 * snooping completion unit, Section III-C). Every serviced command,
 * on either kind of queue, is one "ssd.complete" event at its CQ-write
 * tick.
 */

#ifndef HWDP_SSD_SSD_DEVICE_HH
#define HWDP_SSD_SSD_DEVICE_HH

#include <functional>
#include <memory>
#include <vector>

#include "nvme/queue_pair.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "ssd/ssd_profile.hh"

namespace hwdp::ssd {

/** Per-command fault decision returned by an IoFaultInjector. */
struct IoFaultDecision
{
    /** NVMe status for the completion entry; 0 = success. */
    std::uint16_t status = 0;
    /** Extra ticks added between media done and the CQ write. */
    Tick extraLatency = 0;
    /** Ticks the command's channel is stalled before servicing. */
    Tick channelStall = 0;
};

/**
 * Fault-injection hook the device consults while servicing commands.
 * Declared here (not in src/testing) so the device model carries no
 * dependency on the test library; testing::FaultPlan implements it.
 */
class IoFaultInjector
{
  public:
    virtual ~IoFaultInjector() = default;

    /** Decide the fate of one fetched command. */
    virtual IoFaultDecision onCommand(const nvme::SubmissionEntry &sqe,
                                      std::uint16_t qid) = 0;

    /**
     * Delay added to the device's command fetch for a doorbell write
     * on @p qid; 0 = deliver normally. Models a dropped/deferred
     * doorbell while preserving forward progress.
     */
    virtual Tick doorbellDropDelay(std::uint16_t qid) = 0;
};

class SsdDevice : public sim::SimObject
{
  public:
    /**
     * Invoked when a completion becomes visible to the host.
     * For interrupt-driven queues this fires interruptLatency after
     * the CQ write; for snooped queues it fires at the CQ write itself.
     */
    using CompletionListener =
        std::function<void(std::uint16_t qid,
                           const nvme::CompletionEntry &cqe)>;

    SsdDevice(std::string name, sim::EventQueue &eq,
              const SsdProfile &profile, sim::Rng rng);

    /**
     * Create an I/O queue pair.
     * @param depth      Ring depth.
     * @param prio       Arbitration class; urgent queues are fetched
     *                   first (the SMU queue uses this).
     * @param interrupts True for the kernel's interrupt-driven queues;
     *                   false for SMU queues whose completion unit
     *                   snoops the CQ memory write.
     * @return the queue id.
     */
    std::uint16_t createQueuePair(std::uint16_t depth, nvme::Priority prio,
                                  bool interrupts);

    nvme::QueuePair &queuePair(std::uint16_t qid);
    const nvme::QueuePair &queuePair(std::uint16_t qid) const;

    /** Register the host-side completion listener for a queue. */
    void setCompletionListener(std::uint16_t qid, CompletionListener fn);

    /**
     * Host doorbell write: tells the device queue @p qid has new SQ
     * entries. The PCIe register write itself is timed by the caller;
     * this starts the device-side fetch.
     */
    void ringSqDoorbell(std::uint16_t qid);

    /**
     * Doorbell write landing at logical time @p at (>= now()). The
     * inline fault chain rings doorbells from within an earlier
     * event; when @p at is ahead of now() the device-side fetch is an
     * EventQueue::hop that may run inline too, saving the "ssd.fetch"
     * event. ringSqDoorbell(qid) is exactly ringSqDoorbellAt(qid,
     * now()).
     */
    void ringSqDoorbellAt(std::uint16_t qid, Tick at);

    /** Host doorbell write after consuming CQ entries (bookkeeping). */
    void ringCqDoorbell(std::uint16_t qid);

    const SsdProfile &profile() const { return prof; }

    /** Commands currently being serviced or queued inside the device. */
    std::uint64_t inflight() const { return nInflight; }

    /** In-device commands fetched from queue @p qid specifically. */
    std::uint64_t queueInflight(std::uint16_t qid) const;

    std::uint64_t readsCompleted() const { return statReads.value(); }
    std::uint64_t writesCompleted() const { return statWrites.value(); }
    std::uint64_t errorsCompleted() const { return statErrors.value(); }

    /** Attach (or clear, with nullptr) the fault injector. */
    void setFaultInjector(IoFaultInjector *inj) { injector = inj; }

    // ---- Host-side observability (never part of simulated state) ----
    std::uint64_t doorbellRings() const { return nDoorbellRings; }
    std::uint64_t doorbellsCoalesced() const
    {
        return nDoorbellsCoalesced;
    }
    std::uint64_t inlineFetches() const { return nInlineFetches; }

    /**
     * Checkpoint the device: RNG, channel busy horizon and queue
     * rings. The device must be idle (no in-flight commands, no
     * pending doorbells, no scheduled fetch).
     */
    void serialize(sim::Serializer &s);

  private:
    struct QueueState
    {
        std::unique_ptr<nvme::QueuePair> qp;
        bool interrupts = true;
        CompletionListener listener;
        bool doorbellPending = false;
        std::uint64_t inflight = 0;
    };

    SsdProfile prof;
    sim::Rng rng;
    std::vector<QueueState> queues;
    std::vector<Tick> channelFreeAt;
    std::uint64_t nInflight = 0;
    bool fetchScheduled = false;
    IoFaultInjector *injector = nullptr;

    std::uint64_t nDoorbellRings = 0;
    std::uint64_t nDoorbellsCoalesced = 0;
    std::uint64_t nInlineFetches = 0;

    sim::Counter statReads;
    sim::Counter statWrites;
    sim::Counter statErrors;
    sim::Histogram statDeviceTime;

    /**
     * Fetch pending commands from all doorbelled queues at logical
     * time @p at (== now() unless the fetch hop ran inline).
     */
    void fetchCommandsAt(Tick at);

    /**
     * Service one fetched command of queue index @p qidx at logical
     * time @p at: media jitter, channel serialisation, then one
     * "ssd.complete" event at the command's CQ-write tick.
     */
    void serviceOne(const nvme::SubmissionEntry &sqe, std::size_t qidx,
                    const IoFaultDecision &fault, Tick at);

    /** Finish a command: CQ write, then interrupt or snoop delivery. */
    void complete(std::size_t qidx, const nvme::SubmissionEntry &sqe,
                  Tick issued, std::uint16_t status);

    QueueState &state(std::uint16_t qid);
};

} // namespace hwdp::ssd

#endif // HWDP_SSD_SSD_DEVICE_HH
