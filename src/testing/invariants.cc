#include "testing/invariants.hh"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "mem/phys_mem.hh"
#include "os/file_system.hh"
#include "os/kernel.hh"
#include "os/pte.hh"
#include "system/system.hh"

namespace hwdp::testing {

namespace {

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

} // namespace

std::vector<std::string>
checkInvariants(system::System &sys)
{
    using namespace os::pte;

    std::vector<std::string> v;
    os::Kernel &kern = sys.kernel();
    mem::PhysMem &pm = sys.physMem();

    // ---- 1. Page-table sanity -------------------------------------------
    std::unordered_map<Pfn, std::string> mapped;
    for (const auto &as : kern.addressSpaces()) {
        for (const auto &vma : as->vmas()) {
            for (std::uint64_t i = 0; i < vma->numPages(); ++i) {
                VAddr va = vma->start + (i << pageShift);
                Entry e = as->pageTable().readPte(va);
                std::string where = "as " + std::to_string(as->id()) +
                                    " va " + hex(va);
                if (isPresent(e)) {
                    Pfn pfn = pfnOf(e);
                    if (pfn >= kern.numFrames()) {
                        v.push_back(where + ": PTE pfn " +
                                    std::to_string(pfn) +
                                    " beyond frame count");
                        continue;
                    }
                    if (!pm.isAllocated(pfn))
                        v.push_back(where + ": mapped frame " +
                                    std::to_string(pfn) +
                                    " not allocated");
                    if (!kern.page(pfn).inUse)
                        v.push_back(where + ": mapped frame " +
                                    std::to_string(pfn) +
                                    " not marked inUse");
                    auto [it, fresh] = mapped.emplace(pfn, where);
                    if (!fresh)
                        v.push_back("frame " + std::to_string(pfn) +
                                    " mapped twice: " + it->second +
                                    " and " + where);
                } else if (auto t = lbaTargetOf(e)) {
                    if (vma->file) {
                        Lba want =
                            vma->file->lbaOf(vma->fileIndexOf(va));
                        if (t->lba != want)
                            v.push_back(
                                where + ": LBA-augmented PTE lba " +
                                std::to_string(t->lba) +
                                " != file lba " + std::to_string(want));
                        if (t->dev != vma->file->device().dev)
                            v.push_back(
                                where + ": PTE device id " +
                                std::to_string(t->dev) +
                                " != file device " +
                                std::to_string(vma->file->device().dev));
                        if (t->sid != vma->file->device().sid)
                            v.push_back(
                                where + ": PTE socket id " +
                                std::to_string(t->sid) +
                                " != file device socket " +
                                std::to_string(vma->file->device().sid));
                    } else if (t->lba != zeroFillLba) {
                        v.push_back(where +
                                    ": anonymous PTE carries lba " +
                                    std::to_string(t->lba) +
                                    " instead of the zero-fill LBA");
                    } else if (t->sid != 0) {
                        v.push_back(where +
                                    ": anonymous PTE carries socket id " +
                                    std::to_string(t->sid) +
                                    " instead of 0");
                    }
                    if (t->sid >= sys.numSockets())
                        v.push_back(where + ": PTE routes to socket " +
                                    std::to_string(t->sid) +
                                    " beyond the machine's " +
                                    std::to_string(sys.numSockets()));
                }
            }
        }
    }

    // ---- 2. Free-page-queue frames --------------------------------------
    // On a multi-socket machine every queue belongs to a socket, and
    // kpoold only donates home-socket frames to it.
    std::unordered_set<Pfn> queued;
    auto checkFpq = [&](const core::FreePageQueue &q, unsigned idx,
                        unsigned home) {
        q.forEachPfn([&](Pfn pfn) {
            queued.insert(pfn);
            std::string where =
                "free page queue " + std::to_string(idx) + " frame " +
                std::to_string(pfn);
            auto it = mapped.find(pfn);
            if (it != mapped.end())
                v.push_back(where + ": also mapped at " + it->second);
            if (pfn >= kern.numFrames()) {
                v.push_back(where + ": beyond frame count");
                return;
            }
            if (!pm.isAllocated(pfn))
                v.push_back(where + ": not allocated");
            if (!kern.page(pfn).inSmuQueue)
                v.push_back(where + ": not flagged inSmuQueue");
            if (sys.numSockets() > 1 && pm.socketOf(pfn) != home)
                v.push_back(where + ": home socket " +
                            std::to_string(pm.socketOf(pfn)) +
                            " but queued on socket " +
                            std::to_string(home));
        });
    };
    {
        unsigned qi = 0;
        for (const system::Socket &sk : sys.socketTopology())
            for (core::FreePageQueue *q : sk.freePageQueues())
                checkFpq(*q, qi++, sk.id);
    }

    // ---- 3. Miss tables <-> in-flight NVMe commands --------------------
    // Both paging modes keep a socket's misses in one table (the SMU's
    // PMSHR or the emulation's), and every command on the unit's
    // device queues belongs to one of its entries.
    auto checkTable = [&](const system::Socket &sk, const core::Pmshr &p,
                          const std::string &tag, auto &queues) {
        std::unordered_set<PAddr> pteAddrs;
        unsigned valid = 0;
        for (unsigned i = 0; i < p.capacity(); ++i) {
            if (!p.validAt(static_cast<int>(i)))
                continue;
            const auto &en = p.entry(static_cast<int>(i));
            ++valid;
            if (!pteAddrs.insert(en.pteAddr).second)
                v.push_back(tag + ": duplicate pte address " +
                            hex(en.pteAddr));
        }
        if (valid != p.occupancy())
            v.push_back(tag + ": occupancy " +
                        std::to_string(p.occupancy()) + " != " +
                        std::to_string(valid) + " valid entries");
        // Units number devices locally; sk.devices holds the same
        // local order.
        for (unsigned d = 0; d < sk.devices.size(); ++d) {
            if (!queues.deviceConfigured(d))
                continue;
            std::uint16_t qid = queues.queueIdOf(d);
            ssd::SsdDevice &dev = *sk.devices[d];
            std::uint64_t cmds = dev.queuePair(qid).sqOccupancy() +
                                 dev.queueInflight(qid);
            if (cmds > p.occupancy())
                v.push_back(tag + ": " + std::to_string(cmds) +
                            " commands in flight on local device " +
                            std::to_string(d) + " but only " +
                            std::to_string(p.occupancy()) + " entries");
        }
    };
    for (const system::Socket &sk : sys.socketTopology()) {
        std::string tag = "socket " + std::to_string(sk.id);
        if (sk.smu)
            checkTable(sk, sk.smu->pmshr(), tag + " pmshr",
                       sk.smu->hostController());
        else if (sk.swSmu)
            checkTable(sk, sk.swSmu->pmshr(), tag + " emulated pmshr",
                       *sk.swSmu);
    }

    // ---- 4. Frame flag composition --------------------------------------
    // The page cache indexes exactly the frames flagged inPageCache,
    // each under its own (file, index): a checkpoint stores only the
    // flags and rebuilds the index from them. With no event pending
    // nothing holds a frame in flight, so an allocated frame that is
    // neither mapped (section 1 reads 2 MB leaves as their 4 KB
    // views), listed, cached nor queued has leaked.
    const bool quiesced = sys.eventQueue().empty();
    std::uint64_t cached = 0;
    for (Pfn pfn = 0; pfn < kern.numFrames(); ++pfn) {
        const os::Page &pg = kern.page(pfn);
        std::string where = "frame " + std::to_string(pfn);
        if (pg.inPageCache && !pg.file)
            v.push_back(where + ": inPageCache without a file");
        if (pg.inPageCache && pg.file) {
            ++cached;
            Pfn in_cache = kern.pageCache().peek(*pg.file, pg.index);
            if (in_cache != pfn)
                v.push_back(where + ": flagged inPageCache, but the page "
                                    "cache maps " + pg.file->name() + ":" +
                            std::to_string(pg.index) + " to " +
                            (in_cache == os::PageCache::noFrame
                                 ? std::string("nothing")
                                 : "frame " + std::to_string(in_cache)));
        }
        const bool listed = kern.reclaimer().lru().contains(pfn);
        if (listed && !pg.inUse)
            v.push_back(where + ": on an LRU list but not inUse");
        if (pg.inSmuQueue && listed)
            v.push_back(where + ": inSmuQueue and on an LRU list");
        if (quiesced && pm.isAllocated(pfn) && !mapped.count(pfn) &&
            !listed && !pg.inPageCache && !queued.count(pfn))
            v.push_back(where + ": orphaned (allocated, but unmapped, "
                                "off the LRU, uncached and unqueued)");
    }
    if (kern.pageCache().size() != cached)
        v.push_back("page cache holds " +
                    std::to_string(kern.pageCache().size()) +
                    " pages, but " + std::to_string(cached) +
                    " frames are flagged inPageCache");

    // ---- 5. Translation-reach audits -------------------------------------
    // Wide PTEs promise the hardware contiguity; a promotion that lied
    // (or a demotion that missed a stamp) is a silent wrong-data bug,
    // so audit every leaf and every NAPOT window structurally.
    if (sys.config().pageMode != PageMode::off) {
        constexpr VAddr hugeSpan = pmdLeafPages << pageShift;
        constexpr VAddr napotSpan = napotPages << pageShift;
        for (const auto &as : kern.addressSpaces()) {
            for (const auto &vma : as->vmas()) {
                // 2 MB PMD leaves: aligned window, 512-aligned head,
                // coherent compound metadata, page-cache agreement.
                as->pageTable().forEachHugeLeaf(
                    vma->start, vma->end,
                    [&](VAddr win, os::EntryRef ref) {
                        if (win < vma->start)
                            return; // neighbour VMA's leaf
                        std::string where = "as " +
                                            std::to_string(as->id()) +
                                            " 2MB leaf " + hex(win);
                        Entry leaf = ref.value();
                        Pfn head = pfnOf(leaf);
                        if (win % hugeSpan != 0)
                            v.push_back(where +
                                        ": window not 2 MB aligned");
                        if (head % pmdLeafPages != 0) {
                            v.push_back(where + ": head pfn " +
                                        std::to_string(head) +
                                        " not 512-frame aligned");
                            return;
                        }
                        const os::Page &hp = kern.page(head);
                        if (hp.order != pmdLeafShift || hp.tail)
                            v.push_back(where +
                                        ": head frame metadata is not "
                                        "a compound head");
                        if (!kern.reclaimer().lru().contains(head))
                            v.push_back(where +
                                        ": head frame off the LRU");
                        for (std::uint64_t i = 0; i < pmdLeafPages;
                             ++i) {
                            const os::Page &pg = kern.page(head + i);
                            VAddr va = win + (i << pageShift);
                            if (!pg.inUse || pg.as != as.get() ||
                                pg.vaddr != va) {
                                v.push_back(
                                    where + ": subframe " +
                                    std::to_string(head + i) +
                                    " metadata disagrees with the leaf");
                                break;
                            }
                            if (i > 0 &&
                                (!pg.tail || pg.headPfn != head)) {
                                v.push_back(where + ": subframe " +
                                            std::to_string(head + i) +
                                            " not flagged as a tail");
                                break;
                            }
                            if (i > 0 &&
                                kern.reclaimer().lru().contains(head + i)) {
                                v.push_back(where + ": tail frame " +
                                            std::to_string(head + i) +
                                            " on an LRU list");
                                break;
                            }
                            if (vma->file &&
                                kern.pageCache().peek(
                                    *vma->file, vma->fileIndexOf(va)) !=
                                    head + i) {
                                v.push_back(
                                    where + ": page cache disagrees at "
                                    "index " +
                                    std::to_string(vma->fileIndexOf(va)));
                                break;
                            }
                        }
                    });

                // NAPOT windows: every stamped PTE implies its whole
                // aligned 16-page window is stamped, present and maps
                // an equally aligned contiguous run.
                std::unordered_set<VAddr> napotWins;
                for (std::uint64_t i = 0; i < vma->numPages(); ++i) {
                    VAddr va = vma->start + (i << pageShift);
                    Entry e = as->pageTable().readPte(va);
                    if (isPresent(e) && hasNapotBit(e) && !isHugeLeaf(e))
                        napotWins.insert(va & ~(napotSpan - 1));
                }
                for (VAddr wb : napotWins) {
                    std::string where = "as " + std::to_string(as->id()) +
                                        " NAPOT window " + hex(wb);
                    if (wb < vma->start ||
                        wb + napotSpan > vma->end) {
                        v.push_back(where + ": crosses the VMA bounds");
                        continue;
                    }
                    Entry base = as->pageTable().readPte(wb);
                    Pfn bpfn = pfnOf(base);
                    if (bpfn % napotPages != 0)
                        v.push_back(where + ": base pfn " +
                                    std::to_string(bpfn) +
                                    " not 16-frame aligned");
                    for (std::uint64_t i = 0; i < napotPages; ++i) {
                        Entry e = as->pageTable().readPte(
                            wb + (i << pageShift));
                        if (!isPresent(e) || !hasNapotBit(e) ||
                            pfnOf(e) != bpfn + i) {
                            v.push_back(
                                where +
                                ": member PTEs are not uniformly "
                                "stamped/contiguous");
                            break;
                        }
                    }
                }
            }
        }
    }

    // ---- 6. Socket topology ---------------------------------------------
    // Every shootdown broadcast bumps every socket's epoch — dropped or
    // deferred remote invalidations change PWC contents, never the
    // epoch — so the epochs must agree at all times, fault plan or not.
    if (sys.numSockets() > 1) {
        const system::Socket &s0 = sys.socketAt(0);
        for (const system::Socket &sk : sys.socketTopology()) {
            std::uint64_t epoch = sk.shootdownEpoch.value();
            if (epoch != s0.shootdownEpoch.value())
                v.push_back("socket " + std::to_string(sk.id) +
                            ": shootdown epoch " + std::to_string(epoch) +
                            " != socket 0's " +
                            std::to_string(s0.shootdownEpoch.value()));
            if (sk.shootdownsDropped.value() +
                    sk.shootdownsDelayed.value() >
                sk.remoteShootdownsIn.value())
                v.push_back("socket " + std::to_string(sk.id) +
                            ": dropped+delayed shootdowns exceed "
                            "remote broadcasts received");
        }
    }

    // ---- 7. CXL tier audits ----------------------------------------------
    // Buffers are per-socket and keyed by global block-layer device
    // index; an entry filed under another socket's device would mean
    // the per-socket isolation broke (a miss routed through the wrong
    // SMU, or the eviction daemon writing to a foreign drive).
    if (sys.config().tierMode != system::TierMode::off) {
        unsigned per_socket = sys.config().nDevices;
        for (unsigned si = 0; si < sys.numSockets(); ++si) {
            tier::CxlBuffer *t = sys.tierAt(si);
            std::string tag = "socket " + std::to_string(si) + " tier";
            if (!t) {
                v.push_back(tag + ": missing buffer at tierMode=cxl");
                continue;
            }
            std::uint64_t live = 0;
            t->forEachEntry([&](unsigned dev, Lba lba, bool) {
                ++live;
                if (dev >= sys.numSsds())
                    v.push_back(tag + ": entry on device " +
                                std::to_string(dev) +
                                " beyond the machine's " +
                                std::to_string(sys.numSsds()));
                else if (dev / per_socket != si)
                    v.push_back(tag + ": entry on device " +
                                std::to_string(dev) +
                                " belongs to socket " +
                                std::to_string(dev / per_socket));
                if (lba == zeroFillLba)
                    v.push_back(tag + ": zero-fill LBA cached");
            });
            if (live != t->occupancy())
                v.push_back(tag + ": occupancy " +
                            std::to_string(t->occupancy()) + " != " +
                            std::to_string(live) + " live entries");
            if (t->occupancy() > t->capacity())
                v.push_back(tag + ": occupancy above capacity");
            if (t->occupancyHighWater() > t->capacity() ||
                t->occupancyHighWater() < t->occupancy())
                v.push_back(tag + ": high-water mark inconsistent");
        }
    }

    return v;
}

} // namespace hwdp::testing
