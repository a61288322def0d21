#include "core/smu.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
Smu::serialize(sim::Serializer &s)
{
    s.section("smu");
    std::uint64_t nq = fpqs.size();
    s.check(nq, "free page queue count");
    for (auto &q : fpqs)
        q->serialize(s);
    engine.serialize(s);
    nvme.serialize(s);
}

Smu::Smu(std::string name, sim::EventQueue &eq, unsigned sid,
         const Params &params, os::Kernel &kernel)
    : sim::SimObject(std::move(name), eq), socketId(sid), prm(params),
      kernel(kernel),
      engine(kernel, params.pmshrEntries, false),
      nvme(this->name() + ".nvme", eq, smuCosts.nvme),
      statPrefetch("prefetches", "sequential next-page prefetches"),
      statRemoteRequests("remote_requests",
                         "misses delivered from a core on another socket")
{
    MissEngine::Stats &ms = engine.stats();
    for (sim::StatBase *st : std::initializer_list<sim::StatBase *>{
             &ms.handled, &ms.zeroFills, &statPrefetch, &ms.coalesced,
             &ms.queueEmpty, &ms.full, &ms.ioRetries,
             &ms.rejectedIoError, &ms.latencyUs})
        stats().add(*st);
    if (kernel.params().sockets > 1)
        stats().add(statRemoteRequests);
    const os::KernelParams &kp = kernel.params();
    unsigned n_queues = prm.perCoreFreeQueues ? kp.nLogical / kp.sockets : 1;
    std::uint64_t per_queue = std::max<std::uint64_t>(
        prm.freeQueueCapacity / n_queues, 16);
    for (unsigned q = 0; q < n_queues; ++q) {
        fpqs.push_back(std::make_unique<FreePageQueue>(
            per_queue, FreePageQueue::prefetchEntries, &eq.statRegistry(),
            this->name() + ".fpq" + std::to_string(q)));
    }

    nvme.setCompletionCallback(
        [this](std::uint16_t tag, std::uint16_t status, Tick at) {
            onIoCompleteAt(tag, status, at);
        });
}

FreePageQueue &
Smu::freePageQueue(unsigned core)
{
    return *fpqs[prm.perCoreFreeQueues ? core % fpqs.size() : 0];
}

std::vector<FreePageQueue *>
Smu::freePageQueues()
{
    std::vector<FreePageQueue *> v;
    for (auto &q : fpqs)
        v.push_back(q.get());
    return v;
}

void
Smu::configureDevice(unsigned dev_id, ssd::SsdDevice *dev)
{
    // The SMU's SQ must never fill while the PMSHR still has space;
    // size it generously above the PMSHR capacity.
    auto depth = static_cast<std::uint16_t>(
        std::max<unsigned>(64, prm.pmshrEntries * 4));
    nvme.configureDevice(dev_id, dev, depth);
}

void
Smu::handleMiss(cpu::PageMissRequest req, Tick at)
{
    // Two register writes deliver the request, then the CAM lookup.
    Tick delay = cycles(smuCosts.requestRegWrites + smuCosts.camLookup);
    // Remote-socket requester: the register writes cross the
    // interconnect to this socket's SMU and the completion broadcast
    // crosses back — charged once as a round-trip premium.
    if (kernel.socketOfCore(req.core) != socketId) {
        delay += smuCosts.remoteRequest;
        ++statRemoteRequests;
    }
    // Request gate: with the lookup tick before the next scheduled
    // event, nothing can execute between now and then, so running the
    // lookup here on the logical clock is byte-identical to the
    // mmu.smureq + smu.lookup events firing. Declined, the request
    // takes that event pair.
    Tick t_l = at + delay;
    if (inlineOk() && t_l < eq.nextEventTick()) {
        ++nInlineMisses;
        lookupStepAt(std::move(req), at, t_l);
        return;
    }
    eq.post(at,
            [this, req = std::move(req), delay]() mutable {
                Tick started = now();
                eq.postIn(delay,
                          [this, req = std::move(req), started]() mutable {
                              lookupStepAt(std::move(req), started, now());
                          },
                          "smu.lookup");
            },
            "mmu.smureq");
}

void
Smu::lookupStepAt(cpu::PageMissRequest req, Tick started, Tick at)
{
    // (1)-(3): coalesce, allocate a PMSHR entry, fetch a free frame
    // from the requesting core's queue.
    MissEngine::Start st = engine.start(req, freePageQueue(req.core),
                                        smuCosts.memRoundTrip, started);
    if (st.route == MissEngine::Route::coalesce) {
        // The walk goes pending and resumes on the broadcast.
        engine.join(st.slot, std::move(req.done));
        return;
    }
    if (st.route == MissEngine::Route::full) {
        callAt(at, [done = std::move(req.done)] { done(false); });
        return;
    }
    if (st.route == MissEngine::Route::queueEmpty) {
        callAt(at, [this, done = std::move(req.done)] {
            if (onQueueEmpty)
                onQueueEmpty();
            done(false);
        });
        return;
    }

    // (4) Complete the entry with the PFN, then (5) fill the frame.
    const Pmshr::Entry &e = engine.miss(st.slot);
    Tick fill_at = at + st.latency + cycles(smuCosts.pfnWrite);
    auto tag = static_cast<std::uint16_t>(st.slot);
    unsigned req_core = e.req.core;
    if (st.route != MissEngine::Route::device) {
        // No NVMe command: the zero engine or one buffer load.
        bool zero = st.route == MissEngine::Route::zeroFill;
        eq.hop(zero ? fill_at + smuCosts.zeroFillLatency : fill_at,
               inlineOk(),
               [this, tag, req_core](Tick t) {
                   freePageQueue(req_core).refillPrefetch();
                   onIoCompleteAt(tag, 0, t);
               },
               zero ? "smu.zerofill" : "smu.tierhit");
        return;
    }

    unsigned dev = e.req.dev;
    Lba lba = e.req.lba;
    PAddr dma = static_cast<PAddr>(e.pfn) << pageShift;
    eq.hop(fill_at, inlineOk(),
           [this, dev, lba, dma, tag, req_core](Tick t) {
               nvme.issueRead(
                   dev, lba, dma, tag,
                   [this, req_core] {
                       // Device time: eagerly refill the prefetch
                       // buffer so the next free-page fetch costs
                       // nothing (III-C).
                       freePageQueue(req_core).refillPrefetch();
                   },
                   t);
           },
           "smu.issue");

    // Only demand misses trigger a prefetch — a prefetch spawning
    // further prefetches would run away through the whole mapping.
    if (prm.sequentialPrefetch && !e.req.isPrefetch)
        maybePrefetchNext(e.req);
}

void
Smu::maybePrefetchNext(const cpu::PageMissRequest &req)
{
    if (req.lba == os::pte::zeroFillLba || !req.as)
        return;
    VAddr next = req.vaddr + pageSize;
    os::WalkRefs refs = req.as->pageTable().walkRefs(next, false);
    if (!refs.pte.valid())
        return;
    auto target = os::pte::lbaTargetOf(refs.pte.value());
    if (!target || target->lba == os::pte::zeroFillLba)
        return;
    if (engine.pmshr().full() || engine.find(refs.pte.addr) >= 0)
        return;
    // Never starve demand misses of free pages: prefetch only from
    // surplus.
    if (freePageQueue(req.core).size() < FreePageQueue::prefetchEntries)
        return;

    ++statPrefetch;
    cpu::PageMissRequest pf =
        cpu::makeMissRequest(refs, *target, req.as, next, req.core);
    pf.isPrefetch = true;
    pf.done = [](bool) {}; // nobody waits; a late touch coalesces
    // Skip the request-transfer cycles: the prefetch is generated
    // inside the SMU itself.
    lookupStepAt(std::move(pf), now(), now());
}

void
Smu::onIoCompleteAt(std::uint16_t tag, std::uint16_t status, Tick at)
{
    // Error completions are never delivered ahead of the clock (the
    // completion unit only inlines successes): at == now() on the
    // retry and bounce branches, so the calls there see event time.
    switch (engine.complete(tag, status)) {
      case MissEngine::Completion::retry: {
        // Same isolated queue, same frame.
        const Pmshr::Entry &e = engine.miss(tag);
        PAddr dma = static_cast<PAddr>(e.pfn) << pageShift;
        nvme.issueRead(e.req.dev, e.req.lba, dma, tag, nullptr, at);
        return;
      }
      case MissEngine::Completion::bounce:
        // Bounce to the OS exactly like the queue rejects (Section
        // IV-D): software owns the recovery policy.
        engine.retire(tag, false, at);
        return;
      case MissEngine::Completion::filled:
        break;
    }

    // (6) I/O complete: (7) update PTE/PMD/PUD in place, then (8)
    // broadcast completion and invalidate the entry. The update is
    // time-free (pt_updater touches no clocks), so running it at an
    // inline `at` ahead of now() is safe: nothing executes before
    // `at` to observe the PTE early. The broadcast stays an event —
    // it resumes walkers and samples the latency histogram, which
    // need real event time.
    engine.updatePageTable(tag);
    Tick delay = cycles(smuCosts.ptUpdateCycles + smuCosts.notifyCycles);
    eq.post(at + delay, [this, tag] { engine.retire(tag, true, now()); },
            "smu.broadcast");
}

} // namespace hwdp::core
