#include "ssd/ssd_device.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::ssd {

void
SsdDevice::serialize(sim::Serializer &s)
{
    s.section("ssddevice");
    if (s.saving()) {
        if (nInflight != 0 || fetchScheduled)
            throw sim::SerializeError(
                "checkpoint: ssd '" + name() +
                "' has commands in flight; quiesce the machine first");
        for (auto &qs : queues)
            if (qs.doorbellPending)
                throw sim::SerializeError(
                    "checkpoint: ssd '" + name() +
                    "' has a pending doorbell; quiesce the machine "
                    "first");
    }
    rng.serialize(s);
    std::uint64_t nq = queues.size();
    s.check(nq, "queue pair count");
    for (auto &qs : queues) {
        s.check(qs.interrupts, "queue interrupt mode");
        qs.qp->serialize(s);
        s.io(qs.inflight);
    }
    s.io(channelFreeAt);
    if (s.loading()) {
        nInflight = 0;
        fetchScheduled = false;
        for (auto &qs : queues)
            qs.doorbellPending = false;
    }
}

SsdDevice::SsdDevice(std::string name, sim::EventQueue &eq,
                     const SsdProfile &profile, sim::Rng rng)
    : sim::SimObject(std::move(name), eq), prof(profile), rng(rng),
      channelFreeAt(profile.channels, 0),
      statReads(stats(), "reads", "4KB read commands completed"),
      statWrites(stats(), "writes", "write commands completed"),
      statErrors(stats(), "error_completions",
                 "commands completed with error status"),
      statDeviceTime(stats(), "device_time_us",
                     "doorbell-to-CQE-write time (us)", 0.5, 400)
{
    if (prof.channels == 0)
        fatal("ssd '", this->name(), "': profile needs >= 1 channel");
}

std::uint16_t
SsdDevice::createQueuePair(std::uint16_t depth, nvme::Priority prio,
                           bool interrupts)
{
    auto qid = static_cast<std::uint16_t>(queues.size() + 1);
    QueueState qs;
    // Ring placement in simulated physical memory is symbolic: distinct
    // non-overlapping regions so CQ-head snoop addresses are unique.
    PAddr sq_base = 0xfee0'0000'0000ULL + qid * 0x10000ULL;
    PAddr cq_base = sq_base + 0x8000ULL;
    qs.qp = std::make_unique<nvme::QueuePair>(qid, depth, sq_base, cq_base,
                                              prio);
    qs.interrupts = interrupts;
    queues.push_back(std::move(qs));
    return qid;
}

SsdDevice::QueueState &
SsdDevice::state(std::uint16_t qid)
{
    if (qid == 0 || qid > queues.size())
        panic("ssd '", name(), "': bad queue id ", qid);
    return queues[qid - 1];
}

nvme::QueuePair &
SsdDevice::queuePair(std::uint16_t qid)
{
    return *state(qid).qp;
}

const nvme::QueuePair &
SsdDevice::queuePair(std::uint16_t qid) const
{
    if (qid == 0 || qid > queues.size())
        panic("ssd '", name(), "': bad queue id ", qid);
    return *queues[qid - 1].qp;
}

void
SsdDevice::setCompletionListener(std::uint16_t qid, CompletionListener fn)
{
    state(qid).listener = std::move(fn);
}

std::uint64_t
SsdDevice::queueInflight(std::uint16_t qid) const
{
    if (qid == 0 || qid > queues.size())
        panic("ssd '", name(), "': bad queue id ", qid);
    return queues[qid - 1].inflight;
}

void
SsdDevice::ringSqDoorbell(std::uint16_t qid)
{
    ringSqDoorbellAt(qid, now());
}

void
SsdDevice::ringSqDoorbellAt(std::uint16_t qid, Tick at)
{
    state(qid).doorbellPending = true;
    ++nDoorbellRings;
    // An injected "dropped" doorbell defers the device-side fetch; the
    // write is never truly lost (forward progress is preserved), the
    // device just notices it late. Queried on every ring so the
    // per-site injection stream advances identically on either path.
    Tick drop = injector ? injector->doorbellDropDelay(qid) : 0;
    if (fetchScheduled) {
        // Coalesced: the already-scheduled fetch drains this queue too.
        ++nDoorbellsCoalesced;
        return;
    }
    // The fetch may run inline only for rings arriving ahead of the
    // clock (the inline fault chain, which rings at most once and
    // pushes nothing after the ring). A ring at now() may be followed
    // by more same-instant pushes from the code still executing, which
    // the scheduled fetch coalesces into one priority-ordered batch;
    // those keep the event path.
    fetchScheduled = true;
    if (eq.hop(at + prof.cmdFetch + drop, at > now(),
               [this](Tick t) {
                   fetchScheduled = false;
                   fetchCommandsAt(t);
               },
               "ssd.fetch"))
        ++nInlineFetches;
}

void
SsdDevice::ringCqDoorbell(std::uint16_t qid)
{
    // The host advanced its CQ head; the device needs no timing action,
    // but validate the queue id to catch wiring bugs.
    state(qid);
}

void
SsdDevice::fetchCommandsAt(Tick at)
{
    // Urgent-priority queues are drained first (NVMe arbitration;
    // Section V notes SMU queues can use this to dodge queueing
    // behind bulk OS traffic).
    std::vector<std::size_t> order(queues.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return static_cast<unsigned>(queues[a].qp->priority()) <
                                static_cast<unsigned>(queues[b].qp->priority());
                     });

    for (std::size_t qi : order) {
        QueueState &qs = queues[qi];
        if (!qs.doorbellPending)
            continue;
        qs.doorbellPending = false;
        while (!qs.qp->sqEmpty()) {
            ++nInflight;
            ++qs.inflight;
            nvme::SubmissionEntry sqe = qs.qp->popSqe();
            IoFaultDecision fault;
            if (injector)
                fault = injector->onCommand(sqe, qs.qp->qid());
            serviceOne(sqe, qi, fault, at);
        }
    }
}

void
SsdDevice::serviceOne(const nvme::SubmissionEntry &sqe, std::size_t qidx,
                      const IoFaultDecision &fault, Tick at)
{
    Tick media = 0;
    switch (sqe.opcode) {
      case nvme::Opcode::read:
        media = prof.readMedia;
        break;
      case nvme::Opcode::write:
        media = prof.writeMedia;
        break;
      case nvme::Opcode::flush:
        media = prof.cqeWrite; // effectively immediate in the model
        break;
      default:
        panic("ssd '", name(), "': unknown opcode");
    }
    if (media > 0 && prof.mediaCv > 0.0) {
        double jitter = rng.normal(1.0, prof.mediaCv);
        jitter = std::max(jitter, 0.5);
        media = static_cast<Tick>(static_cast<double>(media) * jitter);
    }

    unsigned ch = static_cast<unsigned>(sqe.slba % prof.channels);
    if (fault.channelStall > 0) {
        channelFreeAt[ch] =
            std::max(at, channelFreeAt[ch]) + fault.channelStall;
    }
    Tick start = std::max(at, channelFreeAt[ch]);
    Tick media_done = start + media;
    channelFreeAt[ch] = media_done;

    Tick cqe_written =
        media_done + prof.xfer4k + prof.cqeWrite + fault.extraLatency;
    Tick issued = at >= prof.cmdFetch ? at - prof.cmdFetch : 0;

    // One completion event per command, at its CQ write.
    auto status = fault.status;
    eq.post(cqe_written,
            [this, qidx, sqe, issued, status] {
                complete(qidx, sqe, issued, status);
            },
            "ssd.complete");
}

void
SsdDevice::complete(std::size_t qidx, const nvme::SubmissionEntry &sqe,
                    Tick issued, std::uint16_t status)
{
    --nInflight;
    QueueState &qs = queues[qidx];
    --qs.inflight;

    nvme::CompletionEntry cqe;
    cqe.cid = sqe.cid;
    cqe.status = status;
    if (!qs.qp->pushCqe(cqe))
        panic("ssd '", name(), "': CQ overflow on qid ", qs.qp->qid());

    if (status != 0)
        ++statErrors;
    else if (sqe.opcode == nvme::Opcode::read)
        ++statReads;
    else if (sqe.opcode == nvme::Opcode::write)
        ++statWrites;
    statDeviceTime.sample(toMicroseconds(now() - issued));

    if (!qs.listener)
        return;
    if (qs.interrupts) {
        // MSI-X delivery to the interrupt handler on some core.
        auto listener = qs.listener;
        auto qid = qs.qp->qid();
        eq.postIn(prof.interruptLatency,
                  [listener, qid, cqe] { listener(qid, cqe); }, "ssd.irq");
    } else {
        // The SMU completion unit snoops the CQ memory write itself:
        // no interrupt, the listener sees it immediately.
        qs.listener(qs.qp->qid(), cqe);
    }
}

} // namespace hwdp::ssd
