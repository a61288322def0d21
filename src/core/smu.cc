#include "core/smu.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "tier/cxl_buffer.hh"

namespace hwdp::core {

void
Smu::serialize(sim::Serializer &s)
{
    s.section("smu");
    if (!barrierWaiters.empty())
        throw sim::SerializeError(
            "checkpoint: SMU barrier outstanding; quiesce the machine "
            "first");
    std::uint64_t nq = fpqs.size();
    s.check(nq, "free page queue count");
    for (auto &q : fpqs)
        q->serialize(s);
    pmshrUnit.serialize(s);
    nvme.serialize(s);
}

Smu::Smu(std::string name, sim::EventQueue &eq, unsigned sid,
         const Params &params, os::Kernel &kernel)
    : sim::SimObject(std::move(name), eq), socketId(sid), prm(params),
      kernel(kernel), pmshrUnit(params.pmshrEntries),
      nvme(this->name() + ".nvme", eq, smuCosts.nvme,
           kernel.params().cyclePeriod),
      updater(smuCosts.ptUpdateCycles, kernel.params().cyclePeriod),
      statHandled(stats(), "handled", "page misses completed in hardware"),
      statZeroFill(stats(), "zero_fills",
                   "anonymous first-touch misses zero-filled"),
      statPrefetch(stats(), "prefetches", "sequential next-page prefetches"),
      statCoalesced(stats(), "coalesced", "duplicate misses coalesced"),
      statRejectEmpty(stats(), "rejected_queue_empty",
                      "bounces: free page queue empty"),
      statRejectFull(stats(), "rejected_pmshr_full", "bounces: PMSHR full"),
      statIoRetry(stats(), "io_retries",
                  "NVMe error completions retried once"),
      statRejectIoError(stats(), "rejected_io_error",
                        "bounces: NVMe error persisted after retry"),
      statLatency(stats(), "miss_latency_us",
                  "hardware miss handling latency (us)", 0.5, 400),
      statRemoteRequests("remote_requests",
                         "misses delivered from a core on another socket")
{
    if (kernel.params().sockets > 1)
        stats().add(statRemoteRequests);
    unsigned n_queues = prm.perCoreFreeQueues
                            ? std::max(prm.nFreeQueues, 1u)
                            : 1u;
    std::uint64_t per_queue = std::max<std::uint64_t>(
        prm.freeQueueCapacity / n_queues, 16);
    for (unsigned q = 0; q < n_queues; ++q) {
        fpqs.push_back(std::make_unique<FreePageQueue>(
            per_queue, prm.prefetchDepth, &eq.statRegistry(),
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
        delay += prm.remoteRequestLatency;
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
    // (1) Outstanding miss to the same page? Coalesce: the walk goes
    // pending and resumes on the broadcast.
    int idx = pmshrUnit.lookup(req.refs.pte.addr);
    if (idx >= 0) {
        ++statCoalesced;
        pmshrUnit.entry(idx).waiters.push_back(std::move(req.done));
        return;
    }

    // (2) Allocate a PMSHR entry.
    idx = pmshrUnit.allocate(req.refs.pte.addr);
    if (idx < 0) {
        ++statRejectFull;
        callAt(at, [done = std::move(req.done)] { done(false); });
        return;
    }

    // (3) Fetch a free page frame from the requesting core's queue.
    FreePageQueue &fpq = freePageQueue(req.core);
    auto pop = fpq.pop(smuCosts.memRoundTrip);
    if (!pop.ok) {
        pmshrUnit.invalidate(idx);
        ++statRejectEmpty;
        callAt(at, [this, done = std::move(req.done)] {
            if (onQueueEmpty)
                onQueueEmpty();
            done(false);
            checkBarrier();
        });
        return;
    }

    // (4) Complete the entry with the PFN, then (5) issue the I/O.
    Pmshr::Entry &e = pmshrUnit.entry(idx);
    e.pfn = pop.pfn;
    e.started = started;
    unsigned dev = req.dev;
    Lba lba = req.lba;
    e.req = std::move(req);

    PAddr dma = static_cast<PAddr>(pop.pfn) << pageShift;
    Tick delay = pop.latency + cycles(smuCosts.pfnWrite);
    auto tag = static_cast<std::uint16_t>(idx);
    unsigned req_core = e.req.core;
    // Completion without an NVMe command (zero-fill, tier hit).
    auto complete = [this, tag, req_core](Tick t) {
        freePageQueue(req_core).refillPrefetch();
        onIoCompleteAt(tag, 0, t);
    };

    // First-touch anonymous page: the reserved LBA tells the SMU to
    // bypass I/O processing entirely and zero-fill the frame
    // (Section V).
    if (lba == os::pte::zeroFillLba) {
        ++statZeroFill;
        eq.hop(at + delay + smuCosts.zeroFillLatency, inlineOk(), complete,
               "smu.zerofill");
        return;
    }

    // CXL tier probe (tierMode=cxl): a resident page is served by a
    // buffer load with no NVMe command at all — the completion rides
    // the zero-fill-shaped path into onIoCompleteAt.
    if (tierBuf) {
        auto tl = tierBuf->tryLoad(tierDevBase + dev, lba);
        if (tl.hit) {
            e.fromTier = true;
            eq.hop(at + delay + tl.latency, inlineOk(), complete,
                   "smu.tierhit");
            return;
        }
    }

    eq.hop(at + delay, inlineOk(),
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
    os::pte::Entry e = refs.pte.value();
    if (!os::pte::isLbaAugmented(e) ||
        os::pte::lbaOf(e) == os::pte::zeroFillLba)
        return;
    if (pmshrUnit.full() || pmshrUnit.lookup(refs.pte.addr) >= 0)
        return;
    // Never starve demand misses of free pages: prefetch only from
    // surplus.
    if (freePageQueue(req.core).size() < prm.prefetchDepth)
        return;

    ++statPrefetch;
    cpu::PageMissRequest pf;
    pf.isPrefetch = true;
    pf.refs = refs;
    pf.sid = os::pte::socketIdOf(e);
    pf.dev = os::pte::deviceIdOf(e);
    pf.lba = os::pte::lbaOf(e);
    pf.as = req.as;
    pf.vaddr = next;
    pf.core = req.core;
    pf.done = [](bool) {}; // nobody waits; a late touch coalesces
    // Skip the request-transfer cycles: the prefetch is generated
    // inside the SMU itself.
    lookupStepAt(std::move(pf), now(), now());
}

void
Smu::onIoCompleteAt(std::uint16_t tag, std::uint16_t status, Tick at)
{
    Pmshr::Entry &e = pmshrUnit.entry(tag);

    if (status != 0) {
        // Error completions are never delivered ahead of the clock
        // (the completion unit only inlines successes): at == now()
        // on this branch, so the direct calls below see the event
        // time.
        if (!e.retried) {
            // Media errors are frequently transient: retry once on
            // the same isolated queue. The PMSHR entry stays live so
            // duplicate misses keep coalescing onto it meanwhile.
            e.retried = true;
            ++statIoRetry;
            PAddr dma = static_cast<PAddr>(e.pfn) << pageShift;
            nvme.issueRead(e.req.dev, e.req.lba, dma, tag, nullptr, at);
            return;
        }
        // Persistent error: bounce to the OS exactly like the queue
        // rejects (Section IV-D) — software owns the recovery policy.
        // The frame goes back to the free page queue untouched.
        ++statRejectIoError;
        freePageQueue(e.req.core).push(e.pfn);
        auto done = std::move(e.req.done);
        auto waiters = std::move(e.waiters);
        pmshrUnit.invalidate(tag);
        done(false);
        for (auto &w : waiters)
            w(false);
        checkBarrier();
        return;
    }

    // Tier admission (inclusion on read): an SSD-fetched page installs
    // into the buffer so the next miss to it is a sub-us load. A full
    // buffer rejects and kicks ktierd — eviction is never performed
    // here on the fault path. Safe at an inline `at` ahead of now()
    // for the same reason the PT update below is: nothing executes
    // before `at` to observe the buffer early.
    if (tierBuf && !e.fromTier && tierBuf->admitOnMiss() &&
        e.req.lba != os::pte::zeroFillLba)
        tierBuf->admit(tierDevBase + e.req.dev, e.req.lba, false);

    // (6) I/O complete: (7) update PTE/PMD/PUD in place, then (8)
    // broadcast completion and invalidate the entry. The update is
    // time-free (pt_updater touches no clocks), so running it at an
    // inline `at` ahead of now() is safe: nothing executes before
    // `at` to observe the PTE early. The broadcast stays an event —
    // it resumes walkers and samples the latency histogram, which
    // need real event time.
    Tick update_lat = updater.update(e.req, e.pfn);
    Tick delay = update_lat + cycles(smuCosts.notifyCycles);

    eq.post(
        at + delay,
        [this, tag] {
            Pmshr::Entry &entry = pmshrUnit.entry(tag);
            // Model bookkeeping: the frame left the SMU queue (the OS
            // flag exists so reclaim never touches donated frames).
            kernel.page(entry.pfn).inSmuQueue = false;

            ++statHandled;
            statLatency.sample(toMicroseconds(now() - entry.started));

            auto done = std::move(entry.req.done);
            auto waiters = std::move(entry.waiters);
            pmshrUnit.invalidate(tag);

            done(true);
            for (auto &w : waiters)
                w(true);
            checkBarrier();
        },
        "smu.broadcast");
}

void
Smu::barrier(std::function<void()> done)
{
    if (pmshrUnit.occupancy() == 0) {
        done();
        return;
    }
    barrierWaiters.push_back(std::move(done));
}

void
Smu::checkBarrier()
{
    if (pmshrUnit.occupancy() != 0 || barrierWaiters.empty())
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &w : waiters)
        w();
}

} // namespace hwdp::core
