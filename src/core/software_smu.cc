#include "core/software_smu.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "tier/cxl_buffer.hh"

namespace hwdp::core {

void
SoftwareSmu::serialize(sim::Serializer &s)
{
    s.section("swsmu");
    if (!inflight.empty() || !byPage.empty())
        throw sim::SerializeError(
            "checkpoint: software SMU has emulated misses in flight; "
            "quiesce the machine first");
    for (auto &d : devices) {
        s.check(d.valid, "swsmu device slot valid");
        s.check(d.qid, "swsmu device queue id");
    }
    s.io(nextCid);
}

SoftwareSmu::SoftwareSmu(std::string name, sim::EventQueue &eq,
                         os::Kernel &kernel, FreePageQueue &fpq)
    : sim::SimObject(std::move(name), eq), kernel(kernel), fpq(fpq),
      devices(8),
      statHandled(stats(), "handled", "misses handled by the emulation"),
      statCoalesced(stats(), "coalesced", "duplicate misses coalesced"),
      statQueueEmpty(stats(), "queue_empty",
                     "bounces to the normal path: queue empty"),
      statIoRetry(stats(), "io_retries",
                  "NVMe error completions retried once"),
      statRejectIoError(stats(), "rejected_io_error",
                        "bounces: NVMe error persisted after retry"),
      statLatency(stats(), "miss_latency_us", "SW-emulated miss latency (us)",
                  0.5, 400),
      statTierHits("tier_hits", "misses served by the CXL tier")
{
}

void
SoftwareSmu::setTier(tier::CxlBuffer *t, unsigned dev_base)
{
    tierBuf = t;
    tierDevBase = dev_base;
    stats().add(statTierHits);
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

void
SoftwareSmu::install()
{
    kernel.setFaultInterceptor(
        [this](os::Thread &t, os::AddressSpace &as, VAddr vaddr,
               os::pte::Entry e, std::function<void()> resume) {
            return intercept(t, as, vaddr, e, std::move(resume));
        });
}

std::uint64_t
SoftwareSmu::pageKey(const os::AddressSpace &as, VAddr va)
{
    return (static_cast<std::uint64_t>(as.id()) << 48) ^
           (va >> pageShift);
}

bool
SoftwareSmu::intercept(os::Thread &t, os::AddressSpace &as, VAddr vaddr,
                       os::pte::Entry e, std::function<void()> resume)
{
    if (!os::pte::isLbaAugmented(e))
        return false;

    vaddr &= ~pageOffsetMask;
    unsigned core = t.core();
    auto &sched = kernel.scheduler();

    // Outstanding miss to the same page? Join it: this faulter also
    // runs the emulation entry code, then mwaits alongside. A miss
    // that finished while the entry code ran has installed its PTE
    // (or bounced): resume at once and re-walk.
    auto pit = byPage.find(pageKey(as, vaddr));
    if (pit != byPage.end()) {
        ++statCoalesced;
        std::uint16_t cid = pit->second;
        sched.runPhases(core, {&os::phases::swSmuSubmit},
                        [this, &t, core, cid,
                         resume = std::move(resume)]() mutable {
                            auto it = inflight.find(cid);
                            if (it == inflight.end()) {
                                resume();
                                return;
                            }
                            kernel.scheduler().setHwStalled(core, true);
                            it->second.waiters.emplace_back(
                                &t, std::move(resume));
                        });
        return true;
    }

    // Free page from the shared queue; when it is empty, bounce back
    // to the normal path (which also triggers the overlapped refill).
    auto pop = fpq.pop(0);
    if (!pop.ok) {
        ++statQueueEmpty;
        return false;
    }

    unsigned dev_id = os::pte::deviceIdOf(e);
    Lba lba = os::pte::lbaOf(e);
    if (dev_id >= devices.size() || !devices[dev_id].valid)
        panic("software smu: fault on unconfigured device ", dev_id);

    std::uint16_t cid = nextCid++;
    Inflight inf;
    inf.t = &t;
    inf.as = &as;
    inf.vaddr = vaddr;
    inf.pfn = pop.pfn;
    inf.started = now();
    inf.devId = dev_id;
    inf.lba = lba;
    inf.resume = std::move(resume);

    // CXL tier probe: a resident frame is served with a buffer load in
    // place of the NVMe command. The emulation still runs its submit
    // phase and mwaits; the load completion stands in for the
    // interrupt, so wake + PTE update are charged identically.
    if (tierBuf && lba != os::pte::zeroFillLba) {
        auto tl = tierBuf->tryLoad(tierDevBase + dev_id, lba);
        if (tl.hit) {
            inf.fromTier = true;
            ++statTierHits;
            inflight.emplace(cid, std::move(inf));
            byPage[pageKey(as, vaddr)] = cid;
            sched.runPhases(
                core, {&os::phases::swSmuSubmit},
                [this, core, cid, lat = tl.latency] {
                    kernel.scheduler().setHwStalled(core, true);
                    eq.postIn(
                        lat, [this, cid] { onInterrupt(cid, 0); },
                        "swsmu.tierhit");
                });
            return true;
        }
    }

    inflight.emplace(cid, std::move(inf));
    byPage[pageKey(as, vaddr)] = cid;

    // Emulated PMSHR insert + NVMe command build/submit, then mwait.
    sched.runPhases(
        core, {&os::phases::swSmuSubmit},
        [this, core, cid, dev_id, lba, pfn = pop.pfn] {
            submitRead(dev_id, cid, lba, pfn, core);
        });
    return true;
}

void
SoftwareSmu::submitRead(unsigned dev_id, std::uint16_t cid, Lba lba,
                        Pfn pfn, unsigned core)
{
    DeviceSlot &slot = devices[dev_id];
    nvme::SubmissionEntry sqe;
    sqe.opcode = nvme::Opcode::read;
    sqe.cid = cid;
    sqe.slba = lba;
    sqe.prp1 = static_cast<PAddr>(pfn) << pageShift;
    if (!slot.dev->queuePair(slot.qid).pushSqe(sqe))
        panic("software smu: SQ full");
    slot.dev->ringSqDoorbell(slot.qid);
    // monitor/mwait: the thread keeps the core but consumes no
    // execution resources until the interrupt touches the
    // monitored line.
    kernel.scheduler().setHwStalled(core, true);
}

void
SoftwareSmu::onInterrupt(std::uint16_t cid, std::uint16_t status)
{
    auto it = inflight.find(cid);
    if (it == inflight.end())
        panic("software smu: completion for unknown cid ", cid);

    if (status != 0) {
        if (!it->second.retried) {
            // Retry once, mirroring the hardware policy: wake from
            // mwait, rebuild and resubmit the command, mwait again.
            it->second.retried = true;
            ++statIoRetry;
            unsigned core = it->second.t->core();
            unsigned dev_id = it->second.devId;
            Lba lba = it->second.lba;
            Pfn pfn = it->second.pfn;
            kernel.scheduler().setHwStalled(core, false);
            kernel.scheduler().runPhases(
                core,
                {&os::phases::swSmuWake, &os::phases::swSmuSubmit},
                [this, cid, dev_id, lba, pfn, core] {
                    submitRead(dev_id, cid, lba, pfn, core);
                });
            return;
        }

        // Persistent error: return the frame and send the faulter and
        // every coalesced waiter down the normal OS fault path, like
        // the hardware bounce (the block layer owns retries there).
        ++statRejectIoError;
        fpq.push(it->second.pfn);

        unsigned core = it->second.t->core();
        kernel.scheduler().setHwStalled(core, false);
        kernel.scheduler().runPhases(
            core, {&os::phases::swSmuWake}, [this, cid] {
                Inflight inf = retire(cid);
                kernel.handlePageFault(*inf.t, *inf.as, inf.vaddr,
                                       false, true,
                                       std::move(inf.resume));
                for (auto &[wt, wresume] : inf.waiters) {
                    kernel.scheduler().setHwStalled(wt->core(), false);
                    kernel.handlePageFault(*wt, *inf.as, inf.vaddr,
                                           false, true,
                                           std::move(wresume));
                }
            });
        return;
    }

    // The emulation resumes on the faulting core: wake from mwait,
    // run the emulated completion (CQ protocol + PTE update), then
    // return to user. Metadata stays for kpted, as in hardware.
    const Inflight &done = it->second;

    // Install the SSD-fetched page into the tier (inclusion on read).
    // A full buffer rejects and kicks ktierd; eviction never runs on
    // the fault path.
    if (tierBuf && !done.fromTier && tierBuf->admitOnMiss() &&
        done.lba != os::pte::zeroFillLba)
        tierBuf->admit(tierDevBase + done.devId, done.lba, false);

    unsigned core = done.t->core();
    kernel.scheduler().runPhases(
        core, {&os::phases::swSmuWake, &os::phases::swSmuComplete},
        [this, cid] {
            Inflight inf = retire(cid);
            os::Vma *vma = inf.as->findVma(inf.vaddr);
            if (!vma)
                panic("software smu: VMA vanished under a miss");
            kernel.installHardwareHandled(*inf.as, *vma, inf.vaddr,
                                          inf.pfn);
            ++statHandled;
            statLatency.sample(toMicroseconds(now() - inf.started));

            kernel.scheduler().setHwStalled(inf.t->core(), false);
            inf.resume();
            for (auto &[wt, wresume] : inf.waiters) {
                kernel.scheduler().setHwStalled(wt->core(), false);
                wresume();
            }
        });
}

SoftwareSmu::Inflight
SoftwareSmu::retire(std::uint16_t cid)
{
    auto it = inflight.find(cid);
    Inflight inf = std::move(it->second);
    inflight.erase(it);
    byPage.erase(pageKey(*inf.as, inf.vaddr));
    return inf;
}

} // namespace hwdp::core
