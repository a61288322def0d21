#include "os/reclaim.hh"

#include <string>

#include "os/kernel.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

// ---------------------------------------------------------------- LruLists

LruLists::LruLists(std::uint64_t frames) : links(frames) {}

void
LruLists::serialize(sim::Serializer &s)
{
    s.section("lru");
    if (s.loading()) {
        // The restore target's boot-time lists give way to the blob's.
        for (Link &k : links)
            k = Link{};
        lists = {};
    }
    // Each listed frame goes out as its 32-bit link index.
    for (ListId id : {activeList, inactiveList}) {
        std::uint64_t n = lists[id].count;
        s.io(n);
        if (s.saving()) {
            for (std::uint32_t p = lists[id].head; p != nil;
                 p = links[p].next)
                s.io(p);
            continue;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint32_t p = 0;
            s.io(p);
            if (p == nil || contains(p))
                throw sim::SerializeError("lru: bad or repeated pfn " +
                                          std::to_string(p));
            linkAfter(id, p, lists[id].tail);
        }
    }
}

void
LruLists::linkAfter(ListId id, Pfn pfn, std::uint32_t prev)
{
    if (pfn >= links.size()) {
        if (pfn >= nil)
            panic("lru: pfn ", pfn, " beyond the link range");
        links.resize(pfn + 1);
    }
    List &l = lists[id];
    std::uint32_t next = prev == nil ? l.head : links[prev].next;
    links[pfn] = Link{prev, next, id};
    auto p = static_cast<std::uint32_t>(pfn);
    (prev == nil ? l.head : links[prev].next) = p;
    (next == nil ? l.tail : links[next].prev) = p;
    ++l.count;
}

void
LruLists::unlink(Pfn pfn)
{
    Link &k = links[pfn];
    List &l = lists[k.list];
    (k.prev == nil ? l.head : links[k.prev].next) = k.next;
    (k.next == nil ? l.tail : links[k.next].prev) = k.prev;
    --l.count;
    k = Link{};
}

void
LruLists::insert(Page &page, ListId id)
{
    if (contains(page.pfn))
        panic("lru: page ", page.pfn, " already linked");
    linkAfter(id, page.pfn, nil);
}

void
LruLists::insertInactive(Page &page)
{
    insert(page, inactiveList);
}

void
LruLists::insertActive(Page &page)
{
    insert(page, activeList);
}

void
LruLists::remove(Page &page)
{
    if (!contains(page.pfn))
        panic("lru: removing unlinked page ", page.pfn);
    unlink(page.pfn);
}

Pfn
LruLists::popCandidate()
{
    List &inactive = lists[inactiveList];
    if (inactive.count == 0) {
        // Aging: demote the oldest active pages.
        List &active = lists[activeList];
        for (std::uint64_t i = 0; i < demoteBatch && active.count != 0;
             ++i) {
            Pfn pfn = active.tail;
            unlink(pfn);
            linkAfter(inactiveList, pfn, nil);
        }
    }
    if (inactive.count == 0)
        return invalidPfn;
    Pfn pfn = inactive.tail;
    unlink(pfn);
    return pfn;
}

void
LruLists::secondChance(Page &page)
{
    if (contains(page.pfn))
        panic("lru: second chance on a linked page");
    page.referenced = false;
    insert(page, activeList);
}

// --------------------------------------------------------------- Reclaimer

void
Reclaimer::serialize(sim::Serializer &s)
{
    s.section("reclaimer");
    KThread::serialize(s);
    s.check(lowWater, "reclaim low watermark");
    s.check(highWater, "reclaim high watermark");
    lists.serialize(s);
}

Reclaimer::Reclaimer(Kernel &kernel, unsigned core, Tick period,
                     std::uint64_t low_water, std::uint64_t high_water)
    : KThread("kreclaimd", core, kernel.scheduler(), kernel.eventQueue(),
              period),
      kernel(kernel), lists(kernel.numFrames()), lowWater(low_water),
      highWater(high_water),
      statEvicted(stats(), "pages_evicted", "pages evicted"),
      statWriteback(stats(), "pages_written_back",
                    "dirty pages written back before eviction"),
      statDirect(stats(), "direct_reclaims",
                 "synchronous reclaims on the faulting path")
{
    if (high_water <= low_water)
        fatal("reclaimer: watermarks inverted");
}

std::uint64_t
Reclaimer::shrink(unsigned core, std::uint64_t want,
                  std::uint64_t *scanned)
{
    std::uint64_t freed = 0;
    std::uint64_t seen = 0;
    // Bounded scan: at worst look at 8x the target before giving up
    // (everything referenced/dirty), mirroring shrink priority decay.
    std::uint64_t budget = want * 8 + 32;

    while (freed < want && seen < budget) {
        Pfn pfn = lists.popCandidate();
        if (pfn == LruLists::invalidPfn)
            break;
        ++seen;
        Page &pg = kernel.page(pfn);

        if (!pg.inUse || pg.underWriteback || pg.inSmuQueue || pg.tail) {
            // Should not be on the LRU; tolerate and drop the link.
            continue;
        }

        // Compound heads stand for their whole 2 MB unit: reclaim the
        // unit wholesale (clean, file-backed) or demote it so the
        // subpages age out individually.
        if (pg.isCompoundHead()) {
            freed += reclaimHugeHead(pg);
            continue;
        }

        // Anonymous pages are not evictable (swap-out is outside the
        // model, as it is a straightforward extension in the paper,
        // Section V): park them on the active list.
        if (pg.as != nullptr && pg.file == nullptr) {
            pg.referenced = false;
            lists.secondChance(pg);
            continue;
        }

        // Referenced pages (hardware-set PTE accessed bit or software
        // referenced flag) get a second chance on the active list.
        bool referenced = pg.referenced;
        if (pg.as != nullptr) {
            pte::Entry e = pg.as->pageTable().readPte(pg.vaddr);
            if (pte::isAccessed(e)) {
                referenced = true;
                pg.as->pageTable().writePte(pg.vaddr,
                                            e & ~pte::accessedBit);
            }
        }
        if (referenced) {
            lists.secondChance(pg);
            continue;
        }

        bool dirty;
        if (pg.as != nullptr) {
            // Evicting a member of a NAPOT run breaks the run first —
            // the wide TLB reach must die before the frame is freed.
            if (kernel.pageMode() != PageMode::off) {
                pte::Entry e = pg.as->pageTable().readPte(pg.vaddr);
                if (pte::hasNapotBit(e))
                    kernel.breakNapotRun(*pg.as, pg.vaddr);
            }
            dirty = kernel.rmap().unmapForEviction(pg);
        } else {
            dirty = pg.dirty; // unmapped page-cache page
        }

        if (dirty) {
            // Drop the page-cache entry first so a racing fault
            // re-reads from disk instead of mapping a frame that is
            // about to be freed (the page-lock serialisation).
            if (pg.inPageCache && pg.file) {
                kernel.pageCache().remove(*pg.file, pg.index);
                pg.inPageCache = false;
            }
            // Write back, then free on completion.
            pg.underWriteback = true;
            ++statWriteback;
            kernel.kexec().run(kernel.scheduler().physCoreOf(core),
                               phases::writebackSubmit);
            File *file = pg.file;
            unsigned dev = kernel.deviceIndexOf(file->device());
            kernel.blockLayer().submit(
                core, dev, file->lbaOf(pg.index), true,
                BlockLayer::IoClass::writeback, [this, &pg] {
                    pg.underWriteback = false;
                    pg.dirty = false;
                    kernel.freePage(pg);
                    ++statEvicted;
                });
        } else {
            kernel.freePage(pg);
            ++statEvicted;
            ++freed;
        }
    }
    if (scanned)
        *scanned = seen;
    return freed;
}

std::uint64_t
Reclaimer::reclaimHugeHead(Page &pg)
{
    // Anonymous units are unevictable, like anonymous 4 KB pages:
    // park the head on the active list.
    if (pg.file == nullptr) {
        pg.referenced = false;
        lists.secondChance(pg);
        return 0;
    }
    AddressSpace &as = *pg.as;
    EntryRef leaf = as.pageTable().hugeLeafRef(pg.vaddr, false);
    if (!leaf.valid() || !pte::isHugeLeaf(leaf.value()))
        panic("reclaim: compound head ", pg.pfn, " without a 2 MB leaf");

    // Unit-level second chance: the leaf A-bit (hardware-set on any
    // access inside the window) or the software referenced flag.
    bool referenced = pg.referenced;
    if (pte::isAccessed(leaf.value())) {
        referenced = true;
        leaf.write(leaf.value() & ~pte::accessedBit);
    }
    if (referenced) {
        lists.secondChance(pg);
        return 0;
    }

    // A dirty subpage (or the split-storm fault hook) forces the
    // split path: demote and let the 4 KB pages age out one by one —
    // whole-unit writeback would stall the scan on 2 MB of I/O.
    bool any_dirty = false;
    for (std::uint64_t i = 0; i < pmdLeafPages && !any_dirty; ++i)
        any_dirty = kernel.page(pg.pfn + i).dirty;
    if (any_dirty || kernel.hugeSplitForced()) {
        kernel.demoteHugePage(as, pg.vaddr);
        // demoteHugePage linked the tails; the head rejoins here.
        if (!lists.contains(pg.pfn))
            lists.insertInactive(pg);
        return 0;
    }

    // Clean file-backed unit: one scan candidate frees 512 frames.
    kernel.reclaimHugeUnit(pg);
    statEvicted += pmdLeafPages;
    return pmdLeafPages;
}

void
Reclaimer::batch(std::function<void()> done)
{
    std::uint64_t free_now = kernel.physMem().freeFrames();
    if (free_now >= lowWater) {
        done();
        return;
    }
    std::uint64_t want = highWater - free_now;
    std::uint64_t scanned = 0;
    shrink(core(), want, &scanned);
    Tick dur = kernel.kexec().runBatch(
        kernel.scheduler().physCoreOf(core()), phases::reclaimScanPage,
        scanned);
    eq.postIn(dur, std::move(done), "kreclaimd.batch");
}

void
Reclaimer::directReclaim(unsigned core, std::uint64_t want,
                         std::function<void()> done)
{
    ++statDirect;
    std::uint64_t scanned = 0;
    shrink(core, want, &scanned);
    Tick dur = kernel.kexec().runBatch(kernel.scheduler().physCoreOf(core),
                                       phases::reclaimScanPage, scanned);
    kernel.eventQueue().postIn(dur, std::move(done),
                                         "direct_reclaim");
}

} // namespace hwdp::os
