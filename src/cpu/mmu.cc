#include "cpu/mmu.hh"

#include <unordered_map>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::cpu {

void
Mmu::serialize(sim::Serializer &s)
{
    s.section("mmu");
    tlbUnit.serialize(s);
    walkUnit.serialize(s);

    // Pending-node pool: all nodes must be idle at quiesce. The node
    // generations and the free-list order steer stale-timeout
    // detection and node reuse, so they round-trip to keep a forked
    // run on the identical path.
    std::uint64_t nNodes = pendingPool.size();
    s.io(nNodes);
    if (s.loading()) {
        if (pendingPool.size() > nNodes)
            throw sim::SerializeError(
                "restore: mmu pending pool larger than checkpointed");
        while (pendingPool.size() < nNodes)
            pendingPool.push_back(std::make_unique<Pending>());
    }
    for (auto &up : pendingPool)
        s.io(up->gen);
    std::vector<std::uint64_t> freeIdx;
    if (s.saving()) {
        std::unordered_map<Pending *, std::uint64_t> idx;
        for (std::uint64_t i = 0; i < pendingPool.size(); ++i)
            idx[pendingPool[i].get()] = i;
        for (Pending *p = pendingFree; p; p = p->nextFree)
            freeIdx.push_back(idx.at(p));
        if (freeIdx.size() != pendingPool.size())
            throw sim::SerializeError(
                "checkpoint: mmu access in flight; quiesce the machine "
                "first");
    }
    s.io(freeIdx);
    if (s.loading()) {
        if (freeIdx.size() != pendingPool.size())
            throw sim::SerializeError(
                "restore: mmu free-list does not cover the pool");
        pendingFree = nullptr;
        for (auto it = freeIdx.rbegin(); it != freeIdx.rend(); ++it) {
            Pending *p = pendingPool.at(*it).get();
            p->nextFree = pendingFree;
            pendingFree = p;
        }
    }
}

Mmu::Mmu(std::string name, sim::EventQueue &eq, unsigned logical_core,
         mem::CacheHierarchy &caches, os::Kernel &kernel)
    : sim::SimObject(std::move(name), eq), core(logical_core),
      physCore(kernel.scheduler().physCoreOf(logical_core)),
      caches(caches), kernel(kernel),
      // Wide (NAPOT / 2 MB) TLB entries exist only when the kernel can
      // produce wide PTEs; off keeps the 4 KB-only TLB bit for bit.
      tlbUnit(64, 1536, 8, 8, kernel.pageMode() != PageMode::off,
              &eq.statRegistry(), this->name() + ".tlb"),
      walkUnit(caches, physCore, Walker::pwcEntries, &eq.statRegistry(),
               this->name() + ".walker"),
      smus(8, nullptr),
      statAccesses(stats(), "accesses", "memory accesses"),
      statHwMiss(stats(), "hw_misses", "page misses sent to an SMU"),
      statOsFault(stats(), "os_faults", "page misses raised as exceptions"),
      statSmuReject(stats(), "smu_rejections",
                    "SMU bounces (queue empty / PMSHR full)"),
      statTimeout(stats(), "stall_timeouts",
                  "hardware stalls converted to context switches"),
      statRemoteDram("remote_dram_accesses",
                     "data accesses that paid the remote-DRAM premium")
{
}

void
Mmu::attachSmu(unsigned sid, PageMissHandlerIface *smu)
{
    if (sid >= smus.size())
        fatal("mmu: socket id ", sid, " out of range");
    smus[sid] = smu;
}

Tick
Mmu::dataAccess(VAddr vaddr, Pfn pfn, bool is_write)
{
    PAddr paddr = (static_cast<PAddr>(pfn) << pageShift) |
                  (vaddr & pageOffsetMask);
    auto res = caches.access(physCore, paddr, false, ExecMode::user);
    Cycles lat = res.latency;
    // NUMA: only an access the caches could not satisfy travels to
    // DRAM; when the frame's home node is not this core's socket it
    // pays the interconnect hop. Single-socket machines never wire
    // numaPm, leaving this path untouched.
    if (numaPm && res.llcMiss && numaPm->socketOf(pfn) != mySocket) {
        lat += numaRemoteExtraCycles;
        ++statRemoteDram;
    }
    if (is_write) {
        // The hardware would set the PTE/TLB dirty state on the first
        // write; the model tracks it on the page for reclaim.
        kernel.page(pfn).dirty = true;
    }
    return lat * cyclePeriod;
}

Mmu::Pending *
Mmu::acquirePending()
{
    if (pendingFree) {
        Pending *p = pendingFree;
        pendingFree = p->nextFree;
        return p;
    }
    pendingPool.push_back(std::make_unique<Pending>());
    return pendingPool.back().get();
}

void
Mmu::releasePending(Pending *p)
{
    // Bump the generation so a still-scheduled stall-timeout event
    // for this node recognises the access as gone.
    ++p->gen;
    p->sink = nullptr;
    p->nextFree = pendingFree;
    pendingFree = p;
}

Mmu::Translation
Mmu::translate(os::AddressSpace &as, VAddr vaddr, bool is_write,
               Tick &lat, Walker::Outcome &wo)
{
    // 1. TLB.
    Tlb::Result tr = tlbUnit.lookup(vaddr);
    if (tr.hit) {
        lat = (tr.l1Hit ? Tick(0) : 4 * cyclePeriod) + // L2 STLB
              dataAccess(vaddr, tr.pfn, is_write);
        return Translation::tlbHit;
    }

    // 2. Page-table walk.
    wo = walkUnit.walk(as, vaddr);
    if (wo.kind != Walker::Classification::present)
        return Translation::miss;
    // The entry may be a wide translation (2 MB leaf or NAPOT range):
    // the TLB caches its base at full reach, while the data access
    // uses the exact covered frame. reach = 0 keeps the pre-huge-page
    // behaviour bit for bit.
    unsigned reach = os::pte::reachOf(wo.entry);
    Pfn base = os::pte::pfnOf(wo.entry) >> reach << reach;
    Pfn pfn = base + ((vaddr >> pageShift) & ((1ULL << reach) - 1));
    tlbUnit.insert(vaddr, base, reach);
    lat = wo.latency + dataAccess(vaddr, pfn, is_write);
    return Translation::walked;
}

bool
Mmu::access(os::Thread &t, os::AddressSpace &as, VAddr vaddr,
            bool is_write, Tick defer, AccessSink &sink, AccessInfo &out)
{
    ++statAccesses;

    Tick lat;
    Walker::Outcome wo;
    if (translate(as, vaddr, is_write, lat, wo) != Translation::miss) {
        out = AccessInfo{};
        out.latency = lat;
        return true;
    }

    // 3. Page miss: park the access and engage the slow path.
    Pending *p = acquirePending();
    p->t = &t;
    p->as = &as;
    p->vaddr = vaddr;
    p->write = is_write;
    p->start = now() + defer;
    p->info = AccessInfo{};
    p->attempts = 0;
    p->sink = &sink;
    startMiss(p, wo, defer);
    return false;
}

void
Mmu::startMiss(Pending *p, const Walker::Outcome &out, Tick defer)
{
    Tick wl = out.latency;

    if (auto target = os::pte::lbaTargetOf(out.entry)) {
        PageMissHandlerIface *smu =
            target->sid < smus.size() ? smus[target->sid] : nullptr;
        if (smu) {
            ++statHwMiss;
            p->info.faulted = true;
            // Pipeline stall: the thread keeps the core but consumes
            // no issue slots (SMT sibling benefits, Figure 16).
            kernel.scheduler().setHwStalled(core, true);
            p->completed = false;
            p->switched = false;

            PageMissRequest req =
                makeMissRequest(out.refs, *target, p->as, p->vaddr, core);
            req.done = [this, p](bool success) { missDone(p, success); };

            // Posted before the request is delivered: the timeout's
            // tick is strictly later than the request's (stallTimeout
            // > 0), so firing order is unaffected, and an inline miss
            // chain may post events immediately — keeping the
            // timeout's queue position ahead of them matches where
            // the event path put it.
            if (stallTimeout > 0) {
                eq.postIn(defer + wl + stallTimeout,
                          [this, p, gen = p->gen, att = p->attempts] {
                              stallTimeoutFired(p, gen, att);
                          },
                          "mmu.stallTimeout");
            }
            smu->handleMiss(std::move(req), now() + defer + wl);
            return;
        }
        // LBA-augmented PTE but no SMU for the socket: fall through to
        // the OS (it can always service a file-backed fault).
    }

    // Conventional exception.
    ++statOsFault;
    p->info.faulted = true;
    eq.postIn(defer + wl,
              [this, p] {
                  kernel.handlePageFault(*p->t, *p->as, p->vaddr,
                                         p->write, false,
                                         [this, p] { retry(p); });
              },
              "mmu.exception");
}

void
Mmu::retry(Pending *p)
{
    if (++p->attempts > 8)
        panic("mmu: access at ", p->vaddr, " not making progress");

    Tick lat;
    Walker::Outcome wo;
    switch (translate(*p->as, p->vaddr, p->write, lat, wo)) {
      case Translation::tlbHit:
        complete(p, lat, "mmu.hit");
        return;
      case Translation::walked:
        complete(p, lat, "mmu.walked");
        return;
      case Translation::miss:
        startMiss(p, wo, 0);
        return;
    }
}

void
Mmu::complete(Pending *p, Tick lat, const char *ev_name)
{
    p->info.latency = (now() + lat) - p->start;
    AccessSink *sink = p->sink;
    AccessInfo info = p->info;
    releasePending(p);
    eq.postIn(lat, [sink, info] { sink->accessDone(info); }, ev_name);
}

void
Mmu::missDone(Pending *p, bool success)
{
    p->completed = true;
    kernel.scheduler().setHwStalled(core, false);

    if (p->switched) {
        // The thread timed out and was descheduled: wake it and
        // continue in its context.
        p->lastSuccess = success;
        p->t->setResumeAction([this, p] { resumeMiss(p, p->lastSuccess); });
        kernel.scheduler().wake(p->t);
    } else {
        resumeMiss(p, success);
    }
}

void
Mmu::resumeMiss(Pending *p, bool success)
{
    if (success) {
        p->info.hwHandled = true;
        retry(p);
    } else {
        // SMU bounce: raise the exception after all (Section III-C,
        // free page queue empty).
        ++statSmuReject;
        kernel.handlePageFault(*p->t, *p->as, p->vaddr, p->write, true,
                               [this, p] { retry(p); });
    }
}

void
Mmu::stallTimeoutFired(Pending *p, std::uint32_t gen, unsigned att)
{
    // The node may have been recycled for another access, or this
    // access may have been bounced into a later SMU engagement; both
    // make this timeout stale.
    if (p->gen != gen || p->attempts != att)
        return;
    if (p->completed || p->switched)
        return;
    // Timeout exception: stop wasting the core and switch out;
    // block() charges the switch.
    p->switched = true;
    ++statTimeout;
    kernel.scheduler().setHwStalled(core, false);
    kernel.scheduler().kernelExec().run(physCore,
                                        os::phases::exceptionEntry);
    kernel.scheduler().block(p->t);
}

} // namespace hwdp::cpu
