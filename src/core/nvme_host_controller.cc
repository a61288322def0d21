#include "core/nvme_host_controller.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
NvmeHostController::serialize(sim::Serializer &s)
{
    s.section("nvmehost");
    for (auto &d : descs) {
        s.check(d.valid, "descriptor valid");
        s.check(d.qid, "descriptor queue id");
    }
}

NvmeHostController::NvmeHostController(std::string name,
                                       sim::EventQueue &eq,
                                       const Timing &timing)
    : sim::SimObject(std::move(name), eq), tm(timing),
      statIssued(stats(), "reads_issued", "NVMe read commands issued"),
      statCompleted(stats(), "completions_snooped",
                    "CQ writes snooped and handled"),
      statErrors(stats(), "error_completions",
                 "snooped CQEs with error status")
{
}

void
NvmeHostController::configureDevice(unsigned dev_id, ssd::SsdDevice *dev,
                                    std::uint16_t queue_depth)
{
    if (dev_id >= maxDevices)
        fatal("nvme host controller: device id ", dev_id,
              " exceeds the 3-bit field");
    if (descs[dev_id].valid)
        fatal("nvme host controller: device ", dev_id,
              " configured twice");

    // Isolated urgent-priority queue with interrupts disabled: the
    // completion unit snoops the CQ memory write instead (III-C).
    std::uint16_t qid =
        dev->createQueuePair(queue_depth, nvme::Priority::urgent, false);
    dev->setCompletionListener(
        qid, [this, dev_id](std::uint16_t,
                            const nvme::CompletionEntry &cqe) {
            onCqWrite(dev_id, cqe);
        });
    descs[dev_id] = Descriptor{true, dev, qid};
}

bool
NvmeHostController::deviceConfigured(unsigned dev_id) const
{
    return dev_id < maxDevices && descs[dev_id].valid;
}

void
NvmeHostController::issueRead(unsigned dev_id, Lba lba, PAddr dma_addr,
                              std::uint16_t tag,
                              std::function<void()> issued, Tick at)
{
    if (!deviceConfigured(dev_id))
        panic("nvme host controller: read on unconfigured device ",
              dev_id);
    Descriptor &d = descs[dev_id];

    nvme::SubmissionEntry sqe;
    sqe.opcode = nvme::Opcode::read;
    sqe.cid = tag; // PMSHR index rides in the command id
    sqe.prp1 = dma_addr;
    sqe.slba = lba;
    sqe.nlb = 0; // single 4 KB block: no PRP list needed

    if (!d.dev->queuePair(d.qid).pushSqe(sqe))
        panic("nvme host controller: SMU SQ full (depth should exceed "
              "PMSHR capacity)");
    ++statIssued;

    // Command write to memory, then the doorbell: the generator builds
    // the 64-byte command and writes it at SQ base + SQ tail, then
    // rings the SQ doorbell (Figure 11(b): 77.16 ns + 1.60 ns).
    bool inl = eq.hop(
        at + tm.cmdWrite + tm.doorbell, true,
        [this, dev_id, issued = std::move(issued)](Tick t) {
            descs[dev_id].dev->ringSqDoorbellAt(descs[dev_id].qid, t);
            if (issued)
                issued();
        },
        "nvme.doorbell");
    ++(inl ? nInlineDoorbells : nEventDoorbells);
}

void
NvmeHostController::onCqWrite(unsigned dev_id,
                              const nvme::CompletionEntry &cqe)
{
    // The completion unit saw the memory write at CQ base + CQ head:
    // run the completion protocol (advance CQ pointer, ring the CQ
    // doorbell, flip the phase register on wrap) and percolate upward.
    Descriptor &d = descs[dev_id];
    if (d.dev->queuePair(d.qid).cqHasWork())
        d.dev->queuePair(d.qid).popCqe();
    d.dev->ringCqDoorbell(d.qid);
    ++statCompleted;
    if (cqe.status != 0)
        ++statErrors;

    std::uint16_t tag = cqe.cid;
    std::uint16_t status = cqe.status;
    // Successful completions may percolate inline under the timing
    // gate; error completions always take the event (the handler's
    // bounce path runs kernel code that needs real event time).
    bool inl = eq.hop(
        now() + tm.completionCycles * cyclePeriod,
        status == 0 && onComplete,
        [this, tag, status](Tick t) {
            if (onComplete)
                onComplete(tag, status, t);
        },
        "nvme.complete");
    ++(inl ? nInlineCompletions : nEventCompletions);
}

} // namespace hwdp::core
