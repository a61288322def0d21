#include "os/fault_handler.hh"

#include "os/kernel.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "tier/cxl_buffer.hh"

namespace hwdp::os {

FaultHandler::FaultHandler(Kernel &kernel) : k(kernel)
{
}

namespace {

std::uint64_t
fileKey(const File &file, std::uint64_t idx)
{
    return (static_cast<std::uint64_t>(file.id()) << 40) | idx;
}

} // namespace

void
FaultHandler::serialize(sim::Serializer &s)
{
    s.section("faulthandler");
    if (!inflight.empty())
        throw sim::SerializeError(
            "checkpoint: page faults in flight; quiesce the machine "
            "first");
}

void
FaultHandler::handle(Thread &t, AddressSpace &as, VAddr vaddr,
                     bool is_write, bool smu_fallback,
                     std::function<void()> resume)
{
    auto c = std::make_shared<Ctx>();
    c->t = &t;
    c->as = &as;
    c->vaddr = vaddr & ~pageOffsetMask;
    c->write = is_write;
    c->fallback = smu_fallback;
    c->start = k.now();
    c->resume = std::move(resume);
    if (smu_fallback)
        ++k.statSmuFallback;

    k.scheduler().runPhases(t.core(), {&phases::exceptionEntry},
                            [this, c] { afterEntry(c); });
}

void
FaultHandler::afterEntry(CtxPtr c)
{
    // The SW-emulated SMU hooks in at the early fault stage
    // (Section VI-A): when the PTE carries the LBA bit, a software
    // SMU routine takes over and the normal path never runs.
    if (k.interceptor && !c->fallback) {
        WalkRefs refs = c->as->pageTable().walkRefs(c->vaddr, false);
        if (k.interceptor(*c->t, *c->as, c->vaddr, refs, c->resume))
            return;
    }
    k.scheduler().runPhases(c->t->core(), {&phases::vmaLookup},
                            [this, c] { lookupVma(c); });
}

void
FaultHandler::lookupVma(CtxPtr c)
{
    c->vma = c->as->findVma(c->vaddr);
    if (!c->vma)
        panic("page fault outside any VMA at ", c->vaddr,
              " (workloads are expected to be well-behaved)");
    if (!c->vma->file) {
        anonFault(c);
        return;
    }

    std::uint64_t idx = c->vma->fileIndexOf(c->vaddr);
    Pfn cached = k.pageCache().lookup(*c->vma->file, idx);
    if (cached != PageCache::noFrame) {
        minorFault(c, cached);
        return;
    }
    majorFault(c);
}

void
FaultHandler::minorFault(CtxPtr c, Pfn cached)
{
    k.scheduler().runPhases(
        c->t->core(), {&phases::minorFaultFill}, [this, c, cached] {
            Page &pg = k.page(cached);
            pte::Entry cur = c->as->pageTable().readPte(c->vaddr);
            if (pte::isPresent(cur)) {
                // A concurrent faulter on the same address resolved
                // the PTE while we charged the fill phases.
                pg.referenced = true;
                finish(c, true);
                return;
            }
            k.rmap().setMapping(pg, *c->as, c->vaddr);
            c->as->pageTable().writePte(
                c->vaddr, pte::makePresent(cached, c->vma->prot));
            pg.referenced = true;
            if (k.pageMode() == PageMode::napot ||
                k.pageMode() == PageMode::coalesce)
                k.maybePromoteNapot(*c->as, c->vaddr);
            finish(c, true);
        });
}

void
FaultHandler::anonFault(CtxPtr c)
{
    // Transparent 2 MB path (thp/coalesce modes): one fault populates
    // a naturally aligned window when a contiguous run is free.
    if (tryHugeAnon(c))
        return;
    // First-touch anonymous fault: allocate a zeroed frame and map it
    // — a minor fault with the page-allocation cost, no I/O. The
    // placement policy homes the frame relative to the faulting core.
    c->pfn = k.allocFrameFor(c->t->core());
    if (c->pfn == mem::PhysMem::invalidPfn) {
        if (++c->allocRetries > 200) {
            // Anonymous pages are unevictable in this model (no swap),
            // so a big enough anon footprint genuinely exhausts memory.
            // A user thread is OOM-killed; only when nobody can die is
            // this a simulator bug.
            if (oomKill(c, false))
                return;
            panic("anon fault: memory exhausted and unreclaimable");
        }
        k.reclaimer().directReclaim(
            c->t->core(), LruLists::demoteBatch,
            [this, c] { anonFault(c); });
        return;
    }
    k.scheduler().runPhases(
        c->t->core(), {&phases::pageAlloc, &phases::minorFaultFill},
        [this, c] {
            // Another faulter on the same address mapped a frame while
            // this one charged the fill phases: keep that one.
            if (pte::isPresent(c->as->pageTable().readPte(c->vaddr))) {
                k.physMem().free(c->pfn);
                finish(c, true);
                return;
            }
            k.installPage(*c->as, *c->vma, c->vaddr, c->pfn, true);
            if (c->write)
                k.page(c->pfn).dirty = true;
            finish(c, true);
        });
}

void
FaultHandler::majorFault(CtxPtr c)
{
    std::uint64_t key =
        fileKey(*c->vma->file, c->vma->fileIndexOf(c->vaddr));
    auto it = inflight.find(key);
    if (it != inflight.end()) {
        // Another thread is already reading this page: wait on it and
        // retry the lookup (which will hit the page cache) once woken.
        it->second.push_back(c);
        c->t->setResumeAction([this, c] { lookupVma(c); });
        k.scheduler().block(c->t);
        return;
    }
    if (tryHugeMajor(c))
        return;
    inflight.emplace(key, std::vector<CtxPtr>{});
    allocateFrame(c);
}

bool
FaultHandler::tryHugeAnon(CtxPtr c)
{
    PageMode mode = k.pageMode();
    if ((mode != PageMode::thp && mode != PageMode::coalesce) ||
        c->vma->fastMmap || c->allocRetries > 0)
        return false;
    VAddr win = k.hugeFaultWindow(*c->as, *c->vma, c->vaddr);
    if (win == Kernel::invalidVaddr)
        return false;
    Pfn head = k.allocContigFor(c->t->core());
    if (head == mem::PhysMem::invalidPfn)
        return false; // fragmented: fall back to a 4 KB fault
    k.scheduler().runPhases(
        c->t->core(), {&phases::pageAlloc, &phases::minorFaultFill},
        [this, c, win, head] {
            k.installHugePage(*c->as, *c->vma, win, head, c->vaddr,
                              c->write);
            finish(c, true);
        });
    return true;
}

bool
FaultHandler::tryHugeMajor(CtxPtr c)
{
    PageMode mode = k.pageMode();
    if ((mode != PageMode::thp && mode != PageMode::coalesce) ||
        c->vma->fastMmap || c->fallback || c->allocRetries > 0)
        return false;
    VAddr win = k.hugeFaultWindow(*c->as, *c->vma, c->vaddr);
    if (win == Kernel::invalidVaddr)
        return false;
    // Any 4 KB read already in flight inside the window forfeits the
    // huge fill — its install would race the wide PTE.
    File &file = *c->vma->file;
    std::uint64_t base = c->vma->fileIndexOf(win);
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
        if (inflight.count(fileKey(file, base + i)))
            return false;
    Pfn head = k.allocContigFor(c->t->core());
    if (head == mem::PhysMem::invalidPfn)
        return false;
    c->hugeWin = win;
    c->pfn = head;
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
        inflight.emplace(fileKey(file, base + i), std::vector<CtxPtr>{});
    k.scheduler().runPhases(c->t->core(),
                            {&phases::pageAlloc, &phases::ioSubmit},
                            [this, c] { submitIo(c); });
    return true;
}

void
FaultHandler::unlockWindow(CtxPtr c)
{
    File &file = *c->vma->file;
    std::uint64_t base = c->vma->fileIndexOf(c->hugeWin);
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
        wakeWaiters(fileKey(file, base + i));
}

void
FaultHandler::wakeWaiters(std::uint64_t key)
{
    auto it = inflight.find(key);
    if (it == inflight.end())
        return;
    for (const CtxPtr &w : it->second)
        k.scheduler().wake(w->t);
    inflight.erase(it);
}

void
FaultHandler::allocateFrame(CtxPtr c)
{
    c->pfn = k.allocFrameFor(c->t->core());
    if (c->pfn != mem::PhysMem::invalidPfn) {
        // CXL tier probe (4 KB faults only; a huge fill reads 2 MB in
        // one command and bypasses the 4 KB-framed buffer). Residency
        // is driver metadata in host DRAM, so the probe happens BEFORE
        // the FS/block/NVMe submit phase: a hit never builds a bio —
        // the thread blocks on the buffer load right after frame
        // allocation, and the only completion work is the wakeup.
        if (!c->hugeWin) {
            File &file = *c->vma->file;
            unsigned dev_idx = k.deviceIndexOf(file.device());
            if (tier::CxlBuffer *tb = k.tierForDevice(dev_idx)) {
                Lba lba = file.lbaOf(c->vma->fileIndexOf(c->vaddr));
                auto tl = tb->tryLoad(dev_idx, lba);
                if (tl.hit) {
                    c->fromTier = true;
                    unsigned core = c->t->core();
                    c->t->setResumeAction([this, c] { ioFinished(c); });
                    k.scheduler().runPhases(
                        core, {&phases::pageAlloc},
                        [this, c, core, lat = tl.latency] {
                            if (c->fallback && k.refillHook)
                                k.refillHook(core);
                            k.eventQueue().postIn(
                                lat,
                                [this, c, core] {
                                    k.scheduler().queueKernelWork(
                                        core, {&phases::wakeupSched},
                                        [this, c] {
                                            k.scheduler().wake(c->t);
                                        });
                                },
                                "fault.tierhit");
                            k.scheduler().block(c->t);
                        });
                    return;
                }
            }
        }
        k.scheduler().runPhases(c->t->core(),
                                {&phases::pageAlloc, &phases::ioSubmit},
                                [this, c] { submitIo(c); });
        return;
    }

    // Direct reclaim: synchronous shrink on the faulting core, then
    // retry. Dirty pages free asynchronously via writeback, so a few
    // retries may be needed under write-heavy load.
    if (++c->allocRetries > 200) {
        if (oomKill(c, true))
            return;
        panic("direct reclaim cannot free memory: all pages dirty or "
              "pinned (frames=", k.physMem().totalFrames(), ")");
    }
    k.reclaimer().directReclaim(
        c->t->core(), LruLists::demoteBatch, [this, c] {
            if (k.physMem().freeFrames() > 0) {
                allocateFrame(c);
            } else {
                // Wait for in-flight writeback, then retry.
                k.eventQueue().postIn(
                    microseconds(50.0), [this, c] { allocateFrame(c); },
                    "fault.allocRetry");
            }
        });
}

void
FaultHandler::submitIo(CtxPtr c)
{
    File &file = *c->vma->file;
    // A huge fill reads the whole 2 MB window with one faultRead
    // command starting at the window's first LBA (DESIGN.md §6j).
    std::uint64_t idx =
        c->vma->fileIndexOf(c->hugeWin ? c->hugeWin : c->vaddr);
    unsigned dev_idx = k.deviceIndexOf(file.device());
    Lba lba = file.lbaOf(idx);
    unsigned core = c->t->core();

    // When the fault is an SMU fallback the queue ran dry: refill it
    // overlapped with this very device I/O (Section IV-D / AIOS).
    if (c->fallback && k.refillHook)
        k.refillHook(core);

    c->t->setResumeAction([this, c] { ioFinished(c); });

    k.blockLayer().submit(core, dev_idx, lba, false,
                          BlockLayer::IoClass::faultRead, [this, c] {
                              // Completion phases (irq, block layer,
                              // wakeup) have run as kernel work on the
                              // submitting core; now wake the thread.
                              k.scheduler().wake(c->t);
                          });
    k.scheduler().block(c->t);
}

void
FaultHandler::ioFinished(CtxPtr c)
{
    // Install the SSD-fetched page into the tier (inclusion on read).
    // Huge fills bypass the 4 KB-framed buffer and tier-served faults
    // are already resident; a full buffer rejects and kicks ktierd.
    if (!c->hugeWin && !c->fromTier) {
        unsigned dev_idx = k.deviceIndexOf(c->vma->file->device());
        if (tier::CxlBuffer *tb = k.tierForDevice(dev_idx))
            tb->admit(dev_idx,
                      c->vma->file->lbaOf(c->vma->fileIndexOf(c->vaddr)),
                      false);
    }

    // Running again in the faulting thread's context: the fault-return
    // path updates OS metadata and the PTE, then returns to user.
    k.scheduler().runPhases(
        c->t->core(),
        {&phases::metadataUpdate, &phases::pteUpdateReturn}, [this, c] {
            if (c->hugeWin) {
                k.installHugePage(*c->as, *c->vma, c->hugeWin, c->pfn,
                                  c->vaddr, c->write);
                unlockWindow(c);
                finish(c, false);
                return;
            }
            // Another faulter's hardware or emulated miss may have
            // installed the page during the read: keep that frame and
            // give this one back.
            if (pte::isPresent(c->as->pageTable().readPte(c->vaddr))) {
                k.physMem().free(c->pfn);
            } else {
                k.installPage(*c->as, *c->vma, c->vaddr, c->pfn, true);
                if (c->write)
                    k.page(c->pfn).dirty = true;
            }
            // Release threads that piled up on the same page.
            wakeWaiters(
                fileKey(*c->vma->file, c->vma->fileIndexOf(c->vaddr)));
            finish(c, false);
        });
}

bool
FaultHandler::oomKill(CtxPtr c, bool major)
{
    if (!c->t->handleOom())
        return false;
    ++k.statOomKills;

    // This ctx owns the in-flight entry for its page (it got past
    // majorFault's dedup). Wake the pile-up so each waiter retries the
    // fault on its own — and faces the OOM killer itself if memory is
    // still gone.
    if (major && c->vma && c->vma->file)
        wakeWaiters(fileKey(*c->vma->file, c->vma->fileIndexOf(c->vaddr)));
    // The faulting access never completes: the resume is dropped with
    // the thread already torn down by handleOom().
    return true;
}

void
FaultHandler::finish(CtxPtr c, bool minor)
{
    if (minor)
        ++k.statMinor;
    else
        ++k.statMajor;
    k.statFaultLatency.sample(toMicroseconds(k.now() - c->start));
    c->resume();
}

} // namespace hwdp::os
