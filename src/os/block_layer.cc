#include "os/block_layer.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

void
BlockLayer::serialize(sim::Serializer &s)
{
    s.section("blocklayer");
    if (!pending.empty())
        throw sim::SerializeError(
            "checkpoint: block layer has in-flight bios; quiesce the "
            "machine first");
    std::uint64_t n = devices.size();
    s.check(n, "attached device count");
    for (auto &ds : devices) {
        std::uint64_t nq = ds.coreQid.size();
        s.check(nq, "kernel queue pairs per device");
        for (std::uint16_t qid : ds.coreQid)
            s.check(qid, "kernel queue pair id");
    }
    s.io(nextCid);
}

BlockLayer::BlockLayer(sim::EventQueue &eq, Scheduler &sched,
                       std::uint16_t queue_depth)
    : sim::SimObject("blk", eq), sched(sched), qDepth(queue_depth),
      statReads(stats(), "reads", "read bios submitted"),
      statWrites(stats(), "writes", "write bios submitted"),
      statCompletions(stats(), "completions", "bio completions processed"),
      statRetries(stats(), "io_retries",
                  "bios resubmitted after an error completion")
{
}

unsigned
BlockLayer::attachDevice(ssd::SsdDevice *dev)
{
    DeviceState ds;
    ds.dev = dev;
    unsigned dev_idx = static_cast<unsigned>(devices.size());
    for (unsigned c = 0; c < sched.numLogical(); ++c) {
        std::uint16_t qid =
            dev->createQueuePair(qDepth, nvme::Priority::medium, true);
        ds.coreQid.push_back(qid);
        dev->setCompletionListener(
            qid, [this, dev_idx](std::uint16_t q,
                                 const nvme::CompletionEntry &cqe) {
                onDeviceCompletion(dev_idx, q, cqe);
            });
    }
    devices.push_back(std::move(ds));
    return dev_idx;
}

std::uint64_t
BlockLayer::key(unsigned dev_idx, std::uint16_t qid, std::uint16_t cid)
{
    return (static_cast<std::uint64_t>(dev_idx) << 32) |
           (static_cast<std::uint64_t>(qid) << 16) | cid;
}

void
BlockLayer::submit(unsigned core, unsigned dev_idx, Lba lba, bool write,
                   IoClass klass, std::function<void()> on_complete)
{
    if (dev_idx >= devices.size())
        panic("block layer: bad device index ", dev_idx);

    // CXL tier absorption: a background write whose frame is resident
    // in the tier retires there at store latency — no bio, no
    // interrupt; only the batched completion work runs. The tier's own
    // evictions (tierWriteback) are never offered back to it.
    if (klass == IoClass::writeback && tierAbsorb) {
        Tick lat = 0;
        if (tierAbsorb(dev_idx, lba, &lat)) {
            eq.postIn(
                lat,
                [this, core, on = std::move(on_complete)]() mutable {
                    sched.queueKernelWork(
                        core, {&phases::writebackComplete},
                        std::move(on));
                },
                "blk.tierabsorb");
            return;
        }
    }

    DeviceState &ds = devices[dev_idx];
    std::uint16_t qid = ds.coreQid.at(core);

    nvme::SubmissionEntry sqe;
    sqe.opcode = write ? nvme::Opcode::write : nvme::Opcode::read;
    sqe.cid = nextCid++;
    sqe.slba = lba;
    sqe.nlb = 0; // one 4 KB logical block

    if (!ds.dev->queuePair(qid).pushSqe(sqe))
        panic("block layer: kernel SQ full on core ", core,
              " (queue depth ", qDepth, ")");

    pending.emplace(key(dev_idx, qid, sqe.cid),
                    Pending{core, klass, lba, write,
                            std::move(on_complete)});
    if (write)
        ++statWrites;
    else
        ++statReads;
    ds.dev->ringSqDoorbell(qid);
}

void
BlockLayer::onDeviceCompletion(unsigned dev_idx, std::uint16_t qid,
                               const nvme::CompletionEntry &cqe)
{
    auto it = pending.find(key(dev_idx, qid, cqe.cid));
    if (it == pending.end())
        panic("block layer: completion for unknown cid ", cqe.cid);
    Pending p = std::move(it->second);
    pending.erase(it);
    ++statCompletions;

    // Consume the CQ entry and ring the CQ doorbell (cheap; its cost
    // is folded into the completion phases below).
    DeviceState &ds = devices[dev_idx];
    if (ds.dev->queuePair(qid).cqHasWork())
        ds.dev->queuePair(qid).popCqe();
    ds.dev->ringCqDoorbell(qid);

    if (cqe.status != 0) {
        // The kernel retries failed bios until they succeed (with an
        // injector in play errors are transient by construction; a
        // real kernel would give up and SIGBUS after a bounded count).
        ++statRetries;
        unsigned core = p.core;
        sched.queueKernelWork(
            core, {&phases::irqDeliver, &phases::ioComplete},
            [this, core, dev_idx, p = std::move(p)]() mutable {
                submit(core, dev_idx, p.lba, p.write, p.klass,
                       std::move(p.onComplete));
            });
        return;
    }

    std::vector<const KernelPhase *> completion_phases;
    switch (p.klass) {
      case IoClass::faultRead:
      case IoClass::dataRead:
        // The wakeup of the blocked thread is part of the completion
        // path (Figure 3 folds try_to_wake_up into I/O completion).
        completion_phases = {&phases::irqDeliver, &phases::ioComplete,
                             &phases::wakeupSched};
        break;
      case IoClass::writeback:
      case IoClass::tierWriteback:
        completion_phases = {&phases::irqDeliver,
                             &phases::writebackComplete};
        break;
    }
    sched.queueKernelWork(p.core, std::move(completion_phases),
                          std::move(p.onComplete));
}

} // namespace hwdp::os
