#include "os/kernel.hh"

#include <algorithm>
#include <array>

#include "os/fault_handler.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

void
Kernel::serialize(sim::Serializer &s)
{
    s.section("kernel");
    rng.serialize(s);
    kernelExec->serialize(s);
    sched->serialize(s);
    fileSystem->serialize(s);
    blk->serialize(s);
    reclaim->serialize(s);
    faults->serialize(s);

    // Per-frame metadata: pointers become (file id, asid) pairs the
    // identically-booted restore target resolves back. Flag bits 3
    // and 4 are active-list and LRU membership, read from the LRU
    // (restored above) on save and ignored on load. Only frames whose metadata differs
    // from a free frame's go out. The page cache is not written: it
    // indexes exactly the frames flagged inPageCache, each under its
    // own (file, index), and a load rebuilds it from them.
    std::uint64_t nf = framePages.size();
    s.check(nf, "frame count");
    if (s.loading())
        pcache.clear();
    std::uint64_t cached = 0;
    auto freed = [](const Page &pg) { return Page::freed(pg.pfn); };
    s.sparse(framePages, freed, [&](Page &pg) {
        std::uint32_t fileId = pg.file ? pg.file->id() : ~0u;
        std::uint32_t asid = pg.as ? pg.as->id() : ~0u;
        s.io(fileId);
        s.io(asid);
        s.io(pg.index);
        s.io(pg.vaddr);
        auto flags = static_cast<std::uint8_t>(
            (pg.inUse << 0) | (pg.dirty << 1) | (pg.referenced << 2) |
            (reclaim->lru().isActive(pg.pfn) << 3) |
            (reclaim->lru().contains(pg.pfn) << 4) |
            (pg.inPageCache << 5) | (pg.underWriteback << 6) |
            (pg.inSmuQueue << 7));
        s.io(flags);
        if (s.loading()) {
            pg.file = fileId == ~0u ? nullptr : fileSystem->byId(fileId);
            if (fileId != ~0u && !pg.file)
                throw sim::SerializeError(
                    "restore: frame references unknown file id");
            if (asid == ~0u) {
                pg.as = nullptr;
            } else {
                if (asid >= spaces.size())
                    throw sim::SerializeError(
                        "restore: frame references unknown asid");
                pg.as = spaces[asid].get();
            }
            pg.inUse = flags & (1 << 0);
            pg.dirty = flags & (1 << 1);
            pg.referenced = flags & (1 << 2);
            pg.inPageCache = flags & (1 << 5);
            pg.underWriteback = flags & (1 << 6);
            pg.inSmuQueue = flags & (1 << 7);
            if (pg.inPageCache) {
                if (!pg.file || pcache.contains(*pg.file, pg.index))
                    throw sim::SerializeError(
                        "restore: frame " + std::to_string(pg.pfn) +
                        " is cached without a file or under another "
                        "frame's page");
                pcache.insert(*pg.file, pg.index, pg.pfn);
            }
        }
        cached += pg.inPageCache;
        // Guarded so pageMode = off blobs carry no compound shape.
        if (prm.pageMode != PageMode::off) {
            s.io(pg.order);
            s.io(pg.tail);
            s.io(pg.headPfn);
        }
    });
    if (cached != pcache.size())
        throw sim::SerializeError(
            "checkpoint: " + std::to_string(pcache.size()) +
            " page-cache entries but " + std::to_string(cached) +
            " frames flagged inPageCache");

    std::uint64_t nas = spaces.size();
    s.check(nas, "address space count");
    for (auto &as : spaces)
        as->serialize(s);

    std::vector<std::pair<std::uint32_t, std::uint64_t>> wal(
        walDirtyBytes.begin(), walDirtyBytes.end());
    std::sort(wal.begin(), wal.end());
    s.io(wal);
    if (s.loading()) {
        walDirtyBytes.clear();
        walDirtyBytes.insert(wal.begin(), wal.end());
    }
}

Kernel::Kernel(sim::EventQueue &eq, const KernelParams &params,
               mem::PhysMem &pm, mem::CacheHierarchy &caches,
               std::vector<mem::BranchPredictor> &bps, sim::Rng rng)
    : sim::SimObject("kernel", eq), prm(params), pm(pm), rng(rng),
      pcache(&eq.statRegistry()),
      statMajor(stats(), "major_faults", "faults requiring device I/O"),
      statMinor(stats(), "minor_faults", "page-cache hit faults"),
      statSmuFallback(stats(), "smu_fallback_faults",
                      "misses bounced from the SMU to the OS"),
      statMmapCalls(stats(), "mmap_calls", "mmap() invocations"),
      statMunmapCalls(stats(), "munmap_calls", "munmap() invocations"),
      statWalWrites(stats(), "wal_write_ios", "asynchronous write I/Os cut"),
      statOomKills(stats(), "oom_kills",
                   "threads killed on unreclaimable memory"),
      statFaultLatency(stats(), "fault_latency_us",
                       "OS-handled fault latency (us)", 0.5, 400),
      statThpFaults("thp_faults", "2 MB pages installed at fault time"),
      statNapotPromotions("napot_promotions",
                          "64 KB runs promoted to NAPOT entries"),
      statNapotBreaks("napot_breaks", "NAPOT runs broken back to 4 KB"),
      statHugePromotions("huge_promotions",
                         "4 KB runs promoted to 2 MB pages"),
      statHugeSplits("huge_splits", "2 MB pages split into 4 KB pages"),
      statHugeReclaims("huge_reclaims", "2 MB pages reclaimed whole")
{
    if (prm.pageMode != PageMode::off) {
        for (sim::Counter *c :
             {&statThpFaults, &statNapotPromotions, &statNapotBreaks,
              &statHugePromotions, &statHugeSplits, &statHugeReclaims})
            stats().add(*c);
    }

    kernelExec = std::make_unique<KernelExec>(caches, bps, this->rng.fork());
    sched = std::make_unique<Scheduler>(eq, prm.nLogical, prm.nPhysical,
                                        *kernelExec, prm.smtShare);
    fileSystem = std::make_unique<FileSystem>(this->rng.fork());
    blk = std::make_unique<BlockLayer>(eq, *sched);
    reverseMap = std::make_unique<Rmap>(
        [this](AddressSpace &as, VAddr va) {
            if (shootdownFn)
                shootdownFn(as, va);
        },
        &eq.statRegistry());

    framePages.resize(pm.totalFrames());
    for (std::uint64_t i = 0; i < framePages.size(); ++i)
        framePages[i].pfn = i;
    pcache.reserve(framePages.size());

    auto alloc_frames = pm.totalFrames() - pm.reservedCount();
    auto low = static_cast<std::uint64_t>(
        prm.lowWatermarkFrac * static_cast<double>(alloc_frames));
    auto high = static_cast<std::uint64_t>(
        prm.highWatermarkFrac * static_cast<double>(alloc_frames));
    reclaim = std::make_unique<Reclaimer>(*this, prm.reclaimCore,
                                          prm.reclaimPeriod,
                                          std::max<std::uint64_t>(low, 8),
                                          std::max<std::uint64_t>(high, 16));
    sched->addThread(reclaim.get());

    faults = std::make_unique<FaultHandler>(*this);

    // LBA-augmented PTEs must track file-system block remapping
    // (copy-on-write / log-structured updates, Section IV-B).
    fileSystem->setRemapListener(
        [this](File &file, std::uint64_t index, Lba new_lba) {
            if (!file.lbaAugmentedMapping())
                return;
            for (auto &asp : spaces) {
                for (auto &vma : asp->vmas()) {
                    if (vma->file != &file || !vma->fastMmap)
                        continue;
                    if (index < vma->filePageOffset ||
                        index >= vma->filePageOffset + vma->numPages())
                        continue;
                    VAddr va = vma->start +
                               (index - vma->filePageOffset) * pageSize;
                    pte::Entry e = asp->pageTable().readPte(va);
                    if (pte::isLbaAugmented(e)) {
                        BlockDeviceId bdev = file.device();
                        asp->pageTable().writePte(
                            va, pte::makeLbaAugmented(bdev.sid, bdev.dev,
                                                      new_lba, vma->prot));
                    }
                }
            }
        });
}

Kernel::~Kernel() = default;

void
Kernel::attachDevice(ssd::SsdDevice *dev, BlockDeviceId bdev)
{
    for (const auto &a : attached) {
        if (a.bdev == bdev)
            fatal("kernel: device ", bdev.sid, ":", bdev.dev,
                  " attached twice");
    }
    unsigned idx = blk->attachDevice(dev);
    attached.push_back(AttachedDevice{bdev, idx});
}

unsigned
Kernel::deviceIndexOf(BlockDeviceId bdev) const
{
    for (const auto &a : attached) {
        if (a.bdev == bdev)
            return a.blkIndex;
    }
    panic("kernel: unknown block device ", bdev.sid, ":", bdev.dev);
}

Page &
Kernel::page(Pfn pfn)
{
    if (pfn >= framePages.size())
        panic("kernel: pfn ", pfn, " out of range");
    return framePages[pfn];
}

AddressSpace *
Kernel::createAddressSpace()
{
    spaces.push_back(std::make_unique<AddressSpace>(
        static_cast<std::uint32_t>(spaces.size())));
    return spaces.back().get();
}

void
Kernel::setShootdownFn(Rmap::ShootdownFn fn)
{
    shootdownFn = std::move(fn);
}

void
Kernel::populateFastVma(AddressSpace &as, File &file, Vma *vma)
{
    file.markLbaAugmented();
    BlockDeviceId bdev = file.device();
    std::uint64_t n = vma->numPages();
    if (vma->filePageOffset + n > file.numPages())
        panic("populateFastVma: vma extends past EOF of '", file.name(),
              "'");
    File::Cursor lba = file.cursor();
    if (pcache.empty()) {
        // Nothing is resident, so every per-page lookup below would
        // miss: account them in bulk and run-fill the tree one leaf
        // table at a time. Same PTEs, same table-allocation order,
        // same page-cache counters — only the host cost of a
        // million-page mmap sweep changes.
        pcache.noteMissRun(n);
        as.pageTable().writePteRun(
            vma->start, n, [&](std::uint64_t i) {
                return pte::makeLbaAugmented(
                    bdev.sid, bdev.dev,
                    lba.lbaOf(vma->filePageOffset + i), vma->prot);
            });
        return;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        VAddr va = vma->start + i * pageSize;
        std::uint64_t idx = vma->filePageOffset + i;
        Pfn cached = pcache.lookup(file, idx);
        if (cached != PageCache::noFrame) {
            // Cached page: link it directly (Section IV-B).
            Page &pg = page(cached);
            if (pg.as == nullptr) {
                reverseMap->setMapping(pg, as, va);
                as.pageTable().writePte(
                    va, pte::makePresent(cached, vma->prot));
            }
        } else {
            as.pageTable().writePte(
                va, pte::makeLbaAugmented(bdev.sid, bdev.dev,
                                          lba.lbaOf(idx), vma->prot));
        }
    }
}

Vma *
Kernel::mmapFileSync(AddressSpace &as, File &file, bool fast_mmap)
{
    Vma *vma = as.addVma(&file, 0, file.numPages(), fast_mmap,
                         pte::writableBit | pte::userBit);
    if (fast_mmap)
        populateFastVma(as, file, vma);
    return vma;
}

Vma *
Kernel::mmapAnonSync(AddressSpace &as, std::uint64_t n_pages,
                     bool fast_mmap)
{
    Vma *vma = as.addVma(nullptr, 0, n_pages, fast_mmap,
                         pte::writableBit | pte::userBit);
    if (fast_mmap) {
        // Mark every PTE with the reserved zero-fill LBA: the SMU
        // allocates and installs a zeroed frame without touching any
        // device (Section V).
        const pte::Entry e =
            pte::makeLbaAugmented(0, 0, pte::zeroFillLba, vma->prot);
        as.pageTable().writePteRun(vma->start, n_pages,
                                   [e](std::uint64_t) { return e; });
    }
    return vma;
}

void
Kernel::munmapVma(Thread &t, AddressSpace &as, Vma *vma,
                  std::function<void()> done)
{
    ++statMunmapCalls;
    auto teardown = [this, &t, &as, vma, done = std::move(done)] {
        unsigned phys = sched->physCoreOf(t.core());
        Tick dur = kernelExec->run(phys, phases::syscallEntryExit);
        // Huge leaves in the range are demoted first: the per-PTE
        // teardown below never descends through a live 2 MB leaf.
        if (prm.pageMode != PageMode::off) {
            std::vector<VAddr> leaves;
            as.pageTable().forEachHugeLeaf(
                vma->start, vma->end, [&](VAddr va, EntryRef) {
                    // Leaves are whole-window mappings inside one VMA;
                    // the aligned-down scan start may touch a
                    // neighbouring area's leaf.
                    if (va >= vma->start)
                        leaves.push_back(va);
                });
            for (VAddr va : leaves)
                demoteHugePage(as, va);
        }
        std::uint64_t touched = 0;
        as.pageTable().forEachPte(
            vma->start, vma->end, [&](VAddr, EntryRef ref) {
                pte::Entry e = ref.value();
                if (pte::isPresent(e)) {
                    Page &pg = page(pte::pfnOf(e));
                    if (pg.as == &as)
                        reverseMap->clearMapping(pg);
                    // Pages stay in the page cache/LRU for reuse.
                }
                ref.write(0);
                ++touched;
            });
        dur += kernelExec->runBatch(phys, phases::mmapSetupPerPage,
                                    touched);
        as.removeVma(vma);
        eq.postIn(dur, done, "kernel.munmap");
    };

    // Races between SMU page-miss handling and PTE unmapping are
    // prevented by waiting on outstanding misses (the SMU barrier),
    // then synchronising metadata, then tearing down (Section IV-C).
    auto sync_then_teardown = [this, &as, vma, &t,
                               teardown = std::move(teardown)] {
        if (hwdpHooks.syncMetadata && vma->fastMmap) {
            hwdpHooks.syncMetadata(as, vma->start, vma->end, t.core(),
                                   teardown);
        } else {
            teardown();
        }
    };
    if (hwdpHooks.smuBarrier && vma->fastMmap)
        hwdpHooks.smuBarrier(sync_then_teardown);
    else
        sync_then_teardown();
}

void
Kernel::msyncVma(Thread &t, Vma *vma, std::function<void()> done)
{
    AddressSpace *as = nullptr;
    for (auto &asp : spaces) {
        if (asp->findVma(vma->start) == vma)
            as = asp.get();
    }
    if (!as)
        panic("msync: VMA not found in any address space");

    auto writeback = [this, &t, vma, as, done = std::move(done)] {
        unsigned core = t.core();
        unsigned phys = sched->physCoreOf(core);
        Tick dur = kernelExec->run(phys, phases::syscallEntryExit);

        auto remaining = std::make_shared<std::uint64_t>(0);
        auto finished = std::make_shared<bool>(false);
        auto maybe_done = [remaining, finished,
                           done = std::move(done)]() mutable {
            if (*finished && *remaining == 0)
                done();
        };

        auto writebackPage = [&](Page &pg, bool pte_dirty) {
            if (!(pg.dirty || pte_dirty) || pg.underWriteback)
                return;
            pg.underWriteback = true;
            kernelExec->run(phys, phases::writebackSubmit);
            ++*remaining;
            unsigned dev = deviceIndexOf(vma->file->device());
            blk->submit(core, dev, vma->file->lbaOf(pg.index), true,
                        BlockLayer::IoClass::writeback,
                        [this, &pg, remaining, maybe_done]() mutable {
                            pg.underWriteback = false;
                            pg.dirty = false;
                            --*remaining;
                            maybe_done();
                        });
        };

        as->pageTable().forEachPte(
            vma->start, vma->end, [&](VAddr, EntryRef ref) {
                pte::Entry e = ref.value();
                if (!pte::isPresent(e))
                    return;
                writebackPage(page(pte::pfnOf(e)), pte::isDirty(e));
            });
        // forEachPte never descends through a 2 MB leaf; writes inside
        // one are tracked per 4 KB page (Page.dirty), so the leaf
        // windows get their own pass without demoting anything.
        if (prm.pageMode != PageMode::off) {
            as->pageTable().forEachHugeLeaf(
                vma->start, vma->end, [&](VAddr va, EntryRef ref) {
                    if (!vma->contains(va))
                        return;
                    Pfn head = pte::pfnOf(ref.value());
                    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
                        writebackPage(page(head + i), false);
                });
        }

        eq.postIn(dur,
                            [finished, maybe_done]() mutable {
                                *finished = true;
                                maybe_done();
                            },
                            "kernel.msync");
    };

    // msync must observe consistent OS metadata: sync first (IV-C).
    if (hwdpHooks.syncMetadata && vma->fastMmap)
        hwdpHooks.syncMetadata(*as, vma->start, vma->end, t.core(),
                               writeback);
    else
        writeback();
}

void
Kernel::writeFile(Thread &t, File &file, std::uint64_t page_index,
                  std::uint64_t bytes, std::function<void()> done)
{
    unsigned core = t.core();
    unsigned phys = sched->physCoreOf(core);
    Tick dur = kernelExec->run(phys, phases::syscallEntryExit);
    dur += kernelExec->run(phys, phases::writeSyscall);

    std::uint64_t &dirty = walDirtyBytes[file.id()];
    dirty += bytes;
    std::uint64_t chunk = prm.writebackChunkPages * pageSize;
    while (dirty >= chunk) {
        dirty -= chunk;
        ++statWalWrites;
        // Background writeback: asynchronous, lighter completion.
        Lba lba = file.lbaOf(page_index % file.numPages());
        blk->submit(core, deviceIndexOf(file.device()), lba, true,
                    BlockLayer::IoClass::writeback, [] {});
    }

    eq.postIn(dur, std::move(done), "kernel.write");
}

void
Kernel::forkRevert(AddressSpace &as)
{
    // fork(): shared file pages across processes are unsupported, so
    // all LBA-augmented PTEs revert to OS-handled ones and resident
    // hardware-handled PTEs are synchronised immediately (Section V).
    for (auto &vma : as.vmas()) {
        if (!vma->fastMmap)
            continue;
        as.pageTable().forEachPte(
            vma->start, vma->end, [&](VAddr va, EntryRef ref) {
                pte::Entry e = ref.value();
                if (pte::isLbaAugmented(e)) {
                    ref.write(0); // plain non-present: OS handles it
                } else if (pte::needsMetadataSync(e)) {
                    syncHardwareHandledPte(as, va, ref);
                }
            });
        vma->fastMmap = false;
    }
}

void
Kernel::handlePageFault(Thread &t, AddressSpace &as, VAddr vaddr,
                        bool is_write, bool smu_fallback,
                        std::function<void()> resume)
{
    faults->handle(t, as, vaddr, is_write, smu_fallback,
                   std::move(resume));
}

void
Kernel::installPage(AddressSpace &as, Vma &vma, VAddr vaddr, Pfn pfn,
                    bool synced)
{
    Page &pg = page(pfn);
    pg.inUse = true;
    pg.file = vma.file;
    pg.index = vma.fileIndexOf(vaddr);
    pg.referenced = true;
    reverseMap->setMapping(pg, as, vaddr);
    as.pageTable().writePte(vaddr,
                            pte::makePresent(pfn, vma.prot, !synced));
    if (synced) {
        if (vma.file) {
            pcache.insert(*vma.file, pg.index, pfn);
            pg.inPageCache = true;
        }
        reclaim->lru().insertInactive(pg);
        if (prm.pageMode == PageMode::napot ||
            prm.pageMode == PageMode::coalesce)
            maybePromoteNapot(as, vaddr);
    } else {
        as.pageTable().markUpperLba(vaddr);
    }
}

void
Kernel::syncHardwareHandledPte(AddressSpace &as, VAddr vaddr,
                               EntryRef ref)
{
    pte::Entry e = ref.value();
    if (!pte::needsMetadataSync(e))
        panic("syncHardwareHandledPte: PTE not in hardware-handled state");

    Vma *vma = as.findVma(vaddr);
    if (!vma)
        panic("syncHardwareHandledPte: no VMA at ", vaddr);

    Pfn pfn = pte::pfnOf(e);
    Page &pg = page(pfn);
    pg.inUse = true;
    pg.file = vma->file;
    pg.index = vma->fileIndexOf(vaddr);
    pg.referenced = true;
    if (pg.as == nullptr)
        reverseMap->setMapping(pg, as, vaddr);
    if (vma->file && !pg.inPageCache) {
        pcache.insert(*vma->file, pg.index, pfn);
        pg.inPageCache = true;
    }
    if (!reclaim->lru().contains(pfn))
        reclaim->lru().insertInactive(pg);
    ref.write(pte::clearLbaBit(e));
    if (pteSyncFn)
        pteSyncFn(as, vaddr);
    // HWDP areas keep 4 KB fault granularity but gain reach: a freshly
    // synchronised page may complete a contiguous 64 KB window.
    if (prm.pageMode == PageMode::napot ||
        prm.pageMode == PageMode::coalesce)
        maybePromoteNapot(as, vaddr);
}

// ---- Huge pages and translation reach (pageMode != off) ----------------

VAddr
Kernel::hugeFaultWindow(AddressSpace &as, Vma &vma, VAddr vaddr)
{
    constexpr VAddr span = pmdLeafPages << pageShift;
    VAddr win = vaddr & ~(span - 1);
    if (win < vma.start || win + span > vma.end)
        return invalidVaddr;
    if (auto ref = as.pageTable().hugeLeafRef(win, false);
        ref.valid() && pte::isHugeLeaf(ref.value()))
        return invalidVaddr;
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i) {
        VAddr va = win + i * pageSize;
        // Any armed PTE (present, LBA-augmented, ...) disqualifies the
        // window, as does a cached copy of one of its file pages.
        if (as.pageTable().readPte(va) != 0)
            return invalidVaddr;
        if (vma.file &&
            pcache.lookup(*vma.file, vma.fileIndexOf(va)) !=
                PageCache::noFrame)
            return invalidVaddr;
    }
    return win;
}

Pfn
Kernel::allocContigFor(unsigned core_id)
{
    return pm.allocContig(socketOfCore(core_id), pmdLeafShift);
}

void
Kernel::installHugePage(AddressSpace &as, Vma &vma, VAddr win, Pfn head,
                        VAddr fault_va, bool write)
{
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i) {
        VAddr va = win + i * pageSize;
        Page &pg = page(head + i);
        pg.inUse = true;
        pg.file = vma.file;
        pg.index = vma.fileIndexOf(va);
        pg.referenced = true;
        reverseMap->setMapping(pg, as, va);
        if (i == 0) {
            pg.order = pmdLeafShift;
        } else {
            pg.tail = true;
            pg.headPfn = head;
        }
        if (vma.file) {
            pcache.insert(*vma.file, pg.index, head + i);
            pg.inPageCache = true;
        }
    }
    // Only the head rides the LRU: the unit ages and reclaims as one.
    reclaim->lru().insertInactive(page(head));
    if (write)
        page(head + ((fault_va - win) >> pageShift)).dirty = true;
    as.pageTable().writeHugeLeaf(win, pte::makeHugeLeaf(head, vma.prot));
    ++statThpFaults;
}

void
Kernel::demoteHugePage(AddressSpace &as, VAddr vaddr)
{
    constexpr VAddr span = pmdLeafPages << pageShift;
    VAddr win = vaddr & ~(span - 1);
    EntryRef ref = as.pageTable().hugeLeafRef(win, false);
    if (!ref.valid() || !pte::isHugeLeaf(ref.value()))
        panic("demoteHugePage: no 2 MB leaf at ", win);
    Pfn head = pte::pfnOf(ref.value());
    as.pageTable().splitHugeLeaf(win);
    page(head).order = 0;
    for (std::uint64_t i = 1; i < pmdLeafPages; ++i) {
        Page &pg = page(head + i);
        pg.tail = false;
        pg.headPfn = 0;
        // Tails become ordinary pages and must age like them.
        if (!reclaim->lru().contains(pg.pfn))
            reclaim->lru().insertInactive(pg);
    }
    ++statHugeSplits;
    // Same frames before and after the split, so a straggler hitting a
    // stale wide entry still reads the right data; the staleWideTlb
    // fault site exploits exactly this to delay the broadcast.
    shootdownRange(as, win, pmdLeafPages, true);
}

void
Kernel::reclaimHugeUnit(Page &head)
{
    if (!head.isCompoundHead() || head.as == nullptr)
        panic("reclaimHugeUnit: page ", head.pfn, " is not a mapped head");
    AddressSpace &as = *head.as;
    VAddr win = head.vaddr;
    EntryRef ref = as.pageTable().hugeLeafRef(win, false);
    if (!ref.valid() || !pte::isHugeLeaf(ref.value()))
        panic("reclaimHugeUnit: no 2 MB leaf at ", win);
    Pfn base = pte::pfnOf(ref.value());
    // One unmap for the whole unit: the entry reverts to a table
    // pointer over the kept (zeroed) child table.
    ref.write(pte::presentBit);
    // Never delayable: the frames free right below.
    shootdownRange(as, win, pmdLeafPages, false);
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i) {
        Page &pg = page(base + i);
        if (reclaim->lru().contains(pg.pfn))
            reclaim->lru().remove(pg);
        if (pg.inPageCache && pg.file)
            pcache.remove(*pg.file, pg.index);
        pg.resetMetadata();
        pm.free(pg.pfn);
    }
    ++statHugeReclaims;
}

bool
Kernel::hugeWindowPromotable(AddressSpace &as, Vma &vma, VAddr win)
{
    constexpr VAddr span = pmdLeafPages << pageShift;
    if (win % span != 0 || win < vma.start || win + span > vma.end)
        return false;
    if (auto ref = as.pageTable().hugeLeafRef(win, false);
        ref.valid() && pte::isHugeLeaf(ref.value()))
        return false;
    pte::Entry first = as.pageTable().readPte(win);
    if (!pte::isPresent(first) || pte::hasLbaBit(first))
        return false;
    Pfn base = pte::pfnOf(first);
    if (base % pmdLeafPages != 0)
        return false;
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i) {
        pte::Entry e = as.pageTable().readPte(win + i * pageSize);
        if (!pte::isPresent(e) || pte::hasLbaBit(e) ||
            pte::pfnOf(e) != base + i)
            return false;
        Page &pg = page(base + i);
        if (!pg.inUse || pg.underWriteback || pg.inSmuQueue ||
            pg.as != &as || pg.vaddr != win + i * pageSize ||
            pg.order != 0 || pg.tail)
            return false;
    }
    return true;
}

bool
Kernel::promoteWindowHuge(AddressSpace &as, Vma &vma, VAddr win)
{
    if (!hugeWindowPromotable(as, vma, win))
        return false;
    Pfn base = pte::pfnOf(as.pageTable().readPte(win));
    bool accessed = false;
    for (std::uint64_t i = 0; i < pmdLeafPages; ++i)
        if (pte::isAccessed(as.pageTable().readPte(win + i * pageSize)))
            accessed = true;

    Page &head = page(base);
    head.order = pmdLeafShift;
    for (std::uint64_t i = 1; i < pmdLeafPages; ++i) {
        Page &pg = page(base + i);
        pg.tail = true;
        pg.headPfn = base;
        if (reclaim->lru().contains(pg.pfn))
            reclaim->lru().remove(pg);
    }
    if (!reclaim->lru().contains(base))
        reclaim->lru().insertInactive(head);
    pte::Entry leaf = pte::makeHugeLeaf(base, vma.prot);
    if (accessed)
        leaf |= pte::accessedBit;
    as.pageTable().writeHugeLeaf(win, leaf);
    ++statHugePromotions;
    // The 4 KB (and NAPOT) entries the window used to fill the TLB
    // with still translate correctly — same frames — but they would
    // starve the wide entry forever; broadcast so walks reload it.
    shootdownRange(as, win, pmdLeafPages, true);
    return true;
}

void
Kernel::maybePromoteNapot(AddressSpace &as, VAddr vaddr)
{
    constexpr VAddr span = napotPages << pageShift;
    VAddr win = vaddr & ~(span - 1);
    Vma *vma = as.findVma(vaddr);
    if (!vma || win < vma->start || win + span > vma->end)
        return;
    std::array<EntryRef, napotPages> refs;
    Pfn base = 0;
    for (std::uint64_t i = 0; i < napotPages; ++i) {
        WalkRefs wr = as.pageTable().walkRefs(win + i * pageSize, false);
        if (!wr.pte.valid())
            return;
        pte::Entry e = wr.pte.value();
        if (!pte::isPresent(e) || pte::hasLbaBit(e))
            return;
        if (pte::hasNapotBit(e))
            return; // stamping is all-or-nothing per window
        if (i == 0) {
            base = pte::pfnOf(e);
            if (base % napotPages != 0)
                return;
        } else if (pte::pfnOf(e) != base + i) {
            return;
        }
        refs[i] = wr.pte;
    }
    // Promotion needs no shootdown: every covered VPN still maps to
    // the same frame, the TLB merely gains reach on the next walk.
    for (auto &r : refs)
        r.write(pte::setNapotBit(r.value()));
    ++statNapotPromotions;
}

void
Kernel::breakNapotRun(AddressSpace &as, VAddr vaddr)
{
    constexpr VAddr span = napotPages << pageShift;
    VAddr win = vaddr & ~(span - 1);
    bool any = false;
    for (std::uint64_t i = 0; i < napotPages; ++i) {
        WalkRefs wr = as.pageTable().walkRefs(win + i * pageSize, false);
        if (!wr.pte.valid())
            continue;
        pte::Entry e = wr.pte.value();
        if (pte::hasNapotBit(e)) {
            wr.pte.write(pte::clearNapotBit(e));
            any = true;
        }
    }
    if (!any)
        return;
    ++statNapotBreaks;
    // Demotion must kill resident wide entries before a member frame
    // is remapped — this is the correctness-critical direction, so it
    // is never delayable.
    shootdownRange(as, win, napotPages, false);
}

void
Kernel::freePage(Page &pg)
{
    if (!pg.inUse)
        panic("freePage: page ", pg.pfn, " not in use");
    if (reclaim->lru().contains(pg.pfn))
        reclaim->lru().remove(pg);
    if (pg.inPageCache && pg.file)
        pcache.remove(*pg.file, pg.index);
    pg.resetMetadata();
    pm.free(pg.pfn);
}

} // namespace hwdp::os
