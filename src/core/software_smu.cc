#include "core/software_smu.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
SoftwareSmu::serialize(sim::Serializer &s)
{
    fpq->serialize(s);
    s.section("swsmu");
    for (auto &d : devices) {
        s.check(d.valid, "swsmu device slot valid");
        s.check(d.qid, "swsmu device queue id");
    }
    engine.serialize(s);
}

SoftwareSmu::SoftwareSmu(std::string name, sim::EventQueue &eq,
                         os::Kernel &kernel,
                         std::unique_ptr<FreePageQueue> queue)
    : sim::SimObject(std::move(name), eq), kernel(kernel),
      fpq(std::move(queue)),
      // A faulting thread keeps its core through mwait and threads
      // yield only at op boundaries, so each core holds at most one
      // entry.
      engine(kernel, kernel.params().nLogical, true),
      devices(8)
{
    MissEngine::Stats &ms = engine.stats();
    for (sim::StatBase *st : std::initializer_list<sim::StatBase *>{
             &ms.handled, &ms.coalesced, &ms.queueEmpty, &ms.ioRetries,
             &ms.rejectedIoError, &ms.latencyUs})
        stats().add(*st);
}

void
SoftwareSmu::setTier(tier::CxlBuffer *t, unsigned dev_base)
{
    engine.setTier(t, dev_base);
    stats().add(engine.stats().tierHits);
}

void
SoftwareSmu::configureDevice(unsigned dev_id, ssd::SsdDevice *dev,
                             std::uint16_t queue_depth)
{
    if (dev_id >= devices.size())
        fatal("software smu: device id out of range");
    // Interrupts stay enabled: the modified interrupt handler touches
    // the mwait-monitored address (Section VI-A).
    std::uint16_t qid = dev->createQueuePair(
        queue_depth, nvme::Priority::urgent, true);
    dev->setCompletionListener(
        qid,
        [this, dev_id](std::uint16_t q,
                       const nvme::CompletionEntry &cqe) {
            // The emulated completion path consumes the CQ entry and
            // rings the CQ doorbell (cost inside swSmuComplete).
            DeviceSlot &slot = devices[dev_id];
            if (slot.dev->queuePair(q).cqHasWork())
                slot.dev->queuePair(q).popCqe();
            slot.dev->ringCqDoorbell(q);
            onInterrupt(cqe.cid, cqe.status);
        });
    devices[dev_id] = DeviceSlot{true, dev, qid};
}

bool
SoftwareSmu::handleFault(os::Thread &t, cpu::PageMissRequest req,
                         std::function<void()> resume)
{
    unsigned core = req.core;
    auto &sched = kernel.scheduler();

    // How the faulter, and each faulter that joins it, leaves mwait:
    // back to user once the PTE is in, or down the normal fault path
    // when the miss bounced (the block layer owns retries there).
    req.done = [this, &t, as = req.as, va = req.vaddr,
                resume = std::move(resume)](bool ok) mutable {
        kernel.scheduler().setHwStalled(t.core(), false);
        if (ok)
            resume();
        else
            kernel.handlePageFault(t, *as, va, false, true,
                                   std::move(resume));
    };

    MissEngine::Start st = engine.start(req, *fpq, 0, now());
    switch (st.route) {
      case MissEngine::Route::coalesce: {
        // This faulter also runs the emulation entry code, then mwaits
        // alongside. A miss that retired while the entry code ran has
        // installed its PTE (or bounced): resume at once and re-walk.
        // Slots are reused, so the miss is found again by PTE address.
        PAddr pte = req.refs.pte.addr;
        sched.runPhases(core, {&os::phases::swSmuSubmit},
                        [this, core, pte,
                         done = std::move(req.done)]() mutable {
                            int slot = engine.find(pte);
                            if (slot < 0) {
                                done(true);
                                return;
                            }
                            kernel.scheduler().setHwStalled(core, true);
                            engine.join(slot, std::move(done));
                        });
        return true;
      }
      case MissEngine::Route::full:
      case MissEngine::Route::queueEmpty:
        // Bounce to the normal path, which also triggers the
        // overlapped refill.
        return false;
      case MissEngine::Route::zeroFill:
        // No I/O, so no mwait: the entry code zero-fills the frame
        // and completes the miss in one pass.
        sched.runPhases(core,
                        {&os::phases::swSmuSubmit,
                         &os::phases::minorFaultFill,
                         &os::phases::swSmuComplete},
                        [this, slot = st.slot] { finish(slot); });
        return true;
      case MissEngine::Route::tier:
        // The buffer load stands in for the command and its
        // completion for the interrupt, so wake + PTE update are
        // charged as for a device read.
        sched.runPhases(core, {&os::phases::swSmuSubmit},
                        [this, core, slot = st.slot, lat = st.latency] {
                            kernel.scheduler().setHwStalled(core, true);
                            eq.postIn(
                                lat, [this, slot] { onInterrupt(slot, 0); },
                                "swsmu.tierhit");
                        });
        return true;
      case MissEngine::Route::device:
        break;
    }

    unsigned dev_id = engine.miss(st.slot).req.dev;
    if (!deviceConfigured(dev_id))
        panic("software smu: fault on unconfigured device ", dev_id);
    // Emulated PMSHR insert + NVMe command build/submit, then mwait.
    sched.runPhases(core, {&os::phases::swSmuSubmit},
                    [this, slot = st.slot] { submitRead(slot); });
    return true;
}

void
SoftwareSmu::submitRead(int slot)
{
    const Pmshr::Entry &e = engine.miss(slot);
    DeviceSlot &d = devices[e.req.dev];
    nvme::SubmissionEntry sqe;
    sqe.opcode = nvme::Opcode::read;
    sqe.cid = static_cast<std::uint16_t>(slot);
    sqe.slba = e.req.lba;
    sqe.prp1 = static_cast<PAddr>(e.pfn) << pageShift;
    if (!d.dev->queuePair(d.qid).pushSqe(sqe))
        panic("software smu: SQ full");
    d.dev->ringSqDoorbell(d.qid);
    // monitor/mwait: the thread keeps the core but consumes no
    // execution resources until the interrupt touches the
    // monitored line.
    kernel.scheduler().setHwStalled(e.req.core, true);
}

void
SoftwareSmu::onInterrupt(int slot, std::uint16_t status)
{
    unsigned core = engine.miss(slot).req.core;
    auto &sched = kernel.scheduler();
    switch (engine.complete(slot, status)) {
      case MissEngine::Completion::retry:
        // Wake from mwait, rebuild and resubmit the command, mwait
        // again.
        sched.setHwStalled(core, false);
        sched.runPhases(core,
                        {&os::phases::swSmuWake, &os::phases::swSmuSubmit},
                        [this, slot] { submitRead(slot); });
        return;
      case MissEngine::Completion::bounce:
        sched.setHwStalled(core, false);
        sched.runPhases(core, {&os::phases::swSmuWake}, [this, slot] {
            engine.retire(slot, false, now());
        });
        return;
      case MissEngine::Completion::filled:
        // The emulation resumes on the faulting core: wake from mwait,
        // run the emulated completion (CQ protocol + PTE update), then
        // return to user. Metadata stays for kpted, as in hardware.
        sched.runPhases(core,
                        {&os::phases::swSmuWake,
                         &os::phases::swSmuComplete},
                        [this, slot] { finish(slot); });
        return;
    }
}

void
SoftwareSmu::finish(int slot)
{
    engine.updatePageTable(slot);
    engine.retire(slot, true, now());
}

} // namespace hwdp::core
