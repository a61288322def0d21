/**
 * @file
 * The OS kernel model: syscalls, demand paging, memory management.
 *
 * Owns the page-frame metadata, the page cache, the file system, the
 * block layer, the scheduler and the reclaimer, and implements the
 * OSDP page-fault path with the Figure 3 phase structure. The HWDP
 * control plane (fast mmap population, kpted, kpoold, the SW-emulated
 * SMU) hooks in through the interceptor/hook interfaces so the base
 * kernel has no dependency on the hardware extension — mirroring the
 * paper's claim that the extension is OS-agnostic (Section V).
 */

#ifndef HWDP_OS_KERNEL_HH
#define HWDP_OS_KERNEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/cache_hierarchy.hh"
#include "mem/phys_mem.hh"
#include "os/block_layer.hh"
#include "os/file_system.hh"
#include "os/page.hh"
#include "os/page_cache.hh"
#include "os/reclaim.hh"
#include "os/rmap.hh"
#include "os/scheduler.hh"
#include "os/vma.hh"
#include "sim/rng.hh"

namespace hwdp::tier {
class CxlBuffer;
}

namespace hwdp::os {

class FaultHandler;

struct KernelParams
{
    unsigned nLogical = 16;
    unsigned nPhysical = 8;

    /** Watermarks as fractions of allocatable frames. */
    double lowWatermarkFrac = 0.04;
    double highWatermarkFrac = 0.08;

    /** Background reclaimer: core and period. */
    unsigned reclaimCore = 0;     // chosen by System; last core typical
    Tick reclaimPeriod = milliseconds(1.0);

    /** Dirty bytes accumulated before a WAL writeback I/O is cut. */
    std::uint64_t writebackChunkPages = 1;

    double smtShare = 0.6;

    /**
     * NUMA topology the frame allocator sees: cores are split into
     * equal contiguous groups, one per socket, matching PhysMem's
     * per-socket frame spans. 1 keeps the pre-NUMA single-pool
     * behavior exactly.
     */
    unsigned sockets = 1;

    /**
     * Translation-reach mode (2 MB THP / NAPOT / transparent
     * coalescing). off keeps the kernel byte-identical to the
     * 4 KB-only machine: no compound metadata, no wide PTE bits, no
     * extra serialized state.
     */
    PageMode pageMode = PageMode::off;
};

class Kernel : public sim::SimObject
{
  public:
    Kernel(sim::EventQueue &eq, const KernelParams &params,
           mem::PhysMem &pm, mem::CacheHierarchy &caches,
           std::vector<mem::BranchPredictor> &bps, sim::Rng rng);
    ~Kernel() override;

    // ---- Subsystems ---------------------------------------------------
    Scheduler &scheduler() { return *sched; }
    KernelExec &kexec() { return *kernelExec; }
    FileSystem &fs() { return *fileSystem; }
    BlockLayer &blockLayer() { return *blk; }
    PageCache &pageCache() { return pcache; }
    Rmap &rmap() { return *reverseMap; }
    Reclaimer &reclaimer() { return *reclaim; }
    mem::PhysMem &physMem() { return pm; }
    const KernelParams &params() const { return prm; }

    // ---- Devices ------------------------------------------------------
    /** Attach an SSD as block device @p bdev; wires the block layer. */
    void attachDevice(ssd::SsdDevice *dev, BlockDeviceId bdev);
    unsigned deviceIndexOf(BlockDeviceId bdev) const;

    // ---- NUMA placement ---------------------------------------------------
    /** Socket of a logical core under the equal contiguous split. */
    unsigned
    socketOfCore(unsigned core_id) const
    {
        return prm.sockets <= 1
                   ? 0
                   : core_id / (prm.nLogical / prm.sockets);
    }

    /**
     * Allocate a frame for a fault taken on @p core_id, first-touch:
     * homed on the faulting core's socket, falling back to the next
     * socket when that node is dry.
     */
    Pfn allocFrameFor(unsigned core_id)
    {
        return pm.alloc(socketOfCore(core_id));
    }

    // ---- Page-frame metadata -------------------------------------------
    Page &page(Pfn pfn);
    std::uint64_t numFrames() const
    {
        return static_cast<std::uint64_t>(framePages.size());
    }

    // ---- Address spaces --------------------------------------------------
    AddressSpace *createAddressSpace();

    /** All live address spaces (the verification harness walks them). */
    const std::vector<std::unique_ptr<AddressSpace>> &addressSpaces() const
    {
        return spaces;
    }

    // ---- Mappings (boot time, untimed) ----------------------------------
    /**
     * mmap() a whole file. With @p fast_mmap the paper's new flag is
     * set: every PTE is populated at map time with either the resident
     * frame (page-cache hit) or an LBA-augmented entry (Section IV-B),
     * and kpted scans the area from then on. Untimed: the system
     * builder sets a machine up before the measured run starts.
     */
    Vma *mmapFileSync(AddressSpace &as, File &file, bool fast_mmap);

    /**
     * Anonymous mapping (heap/stack-like). With @p fast_mmap every
     * PTE carries the reserved zero-fill LBA so first-touch minor
     * faults are handled by the SMU without I/O (Section V). Untimed
     * boot-time variant.
     */
    Vma *mmapAnonSync(AddressSpace &as, std::uint64_t n_pages,
                      bool fast_mmap);

    // ---- Syscalls (timed; @p done fires when the call returns) ----------
    /**
     * munmap() the VMA: synchronises HWDP metadata (via hooks), tears
     * down PTEs and releases the pages.
     */
    void munmapVma(Thread &t, AddressSpace &as, Vma *vma,
                   std::function<void()> done);

    /** msync(): metadata barrier + writeback of dirty pages. */
    void msyncVma(Thread &t, Vma *vma, std::function<void()> done);

    /**
     * Buffered write of @p bytes to @p file (WAL-style appends).
     * Charges syscall phases; cuts an asynchronous write I/O whenever
     * writebackChunkPages worth of dirty data has accumulated.
     */
    void writeFile(Thread &t, File &file, std::uint64_t page_index,
                   std::uint64_t bytes, std::function<void()> done);

    /** fork() semantics for fast-mmap areas: revert LBA PTEs (V). */
    void forkRevert(AddressSpace &as);

    // ---- Demand paging ---------------------------------------------------
    /**
     * Page-fault entry (called from the page-table walker).
     * @param smu_fallback True when the SMU bounced the miss back to
     *                     the OS (free-page queue empty / PMSHR full).
     * @param resume       Runs in the faulting thread's context once
     *                     the fault is resolved.
     */
    void handlePageFault(Thread &t, AddressSpace &as, VAddr vaddr,
                         bool is_write, bool smu_fallback,
                         std::function<void()> resume);

    // ---- Page lifecycle (fault path, reclaim, HWDP control plane) -------
    /**
     * Install a resident page: PTE write plus, when @p synced, the OS
     * metadata (page cache, LRU, rmap). With !synced the PTE keeps the
     * LBA bit set and metadata is left for kpted (Table I row 3).
     */
    void installPage(AddressSpace &as, Vma &vma, VAddr vaddr, Pfn pfn,
                     bool synced);

    /** Release a frame and reset its metadata. */
    void freePage(Page &page);

    /** Metadata-only synchronisation of one hardware-handled PTE. */
    void syncHardwareHandledPte(AddressSpace &as, VAddr vaddr,
                                EntryRef ref);

    // ---- Huge pages and translation reach (pageMode != off) -------------
    PageMode pageMode() const { return prm.pageMode; }

    /**
     * 2 MB-aligned window base when a transparent-huge-page fault may
     * be attempted for @p vaddr: the naturally aligned 512-page window
     * lies inside @p vma and none of its pages is resident or page-
     * cache cached. Returns invalidVaddr when ineligible.
     */
    VAddr hugeFaultWindow(AddressSpace &as, Vma &vma, VAddr vaddr);
    static constexpr VAddr invalidVaddr = ~VAddr(0);

    /** Contiguous 512-frame run homed for a fault on @p core_id. */
    Pfn allocContigFor(unsigned core_id);

    /**
     * Map [win, win + 2 MB) as one PMD leaf over the naturally
     * aligned 512-frame run starting at @p head: compound-page
     * metadata (head order 9, tails pointing back), page-cache
     * insertions for file windows, the head on the LRU, one leaf PTE.
     */
    void installHugePage(AddressSpace &as, Vma &vma, VAddr win, Pfn head,
                         VAddr fault_va, bool write);

    /**
     * Demote the 2 MB leaf covering @p vaddr back to 512 4 KB PTEs
     * over the same frames, undo the compound metadata, link the
     * tails onto the LRU and shoot the wide translation down.
     */
    void demoteHugePage(AddressSpace &as, VAddr vaddr);

    /**
     * Reclaim a whole clean file-backed huge unit at once: one unmap,
     * one range shootdown, 512 frame frees — no per-page events, so
     * evicting a huge page costs one reclaim action like a 4 KB one.
     */
    void reclaimHugeUnit(Page &head);

    /**
     * kcoalesced promotion: collapse an eligible 2 MB window of
     * synchronised, contiguous, equally aligned 4 KB mappings into a
     * PMD leaf. Returns false when the window does not qualify.
     */
    bool promoteWindowHuge(AddressSpace &as, Vma &vma, VAddr win);

    /**
     * The eligibility half of promoteWindowHuge, side-effect free —
     * kcoalesced asks it first so the coalesce-abort fault site can
     * skip exactly the windows that would have promoted.
     */
    bool hugeWindowPromotable(AddressSpace &as, Vma &vma, VAddr win);

    /**
     * Stamp the NAPOT bit on the aligned 16-PTE window covering
     * @p vaddr when every entry is present, synchronised and the
     * frames are contiguous and equally aligned. No shootdown: the
     * translation does not change, only its reach grows.
     */
    void maybePromoteNapot(AddressSpace &as, VAddr vaddr);

    /** Clear a NAPOT window before one of its pages is remapped. */
    void breakNapotRun(AddressSpace &as, VAddr vaddr);

    /**
     * Range shootdown callback (TLB + PWC on every core/socket). The
     * bool marks broadcasts that are delayable: promotion and split
     * keep every frame in place, so a straggling wide TLB entry still
     * reads the right data (the staleWideTlb fault site exploits
     * this); unmap/eviction broadcasts pass false and must apply
     * immediately.
     */
    using ShootdownRangeFn =
        std::function<void(AddressSpace &, VAddr, std::uint64_t, bool)>;
    void setShootdownRangeFn(ShootdownRangeFn fn)
    {
        shootdownRangeFn = std::move(fn);
    }

    /**
     * hugeSplitStorm fault site: forces the reclaimer to split a
     * clean huge unit instead of reclaiming it whole.
     */
    void setHugeSplitHook(std::function<bool()> fn)
    {
        hugeSplitHook = std::move(fn);
    }
    bool hugeSplitForced() { return hugeSplitHook && hugeSplitHook(); }

    std::uint64_t thpFaults() const { return statThpFaults.value(); }
    std::uint64_t napotPromotions() const
    {
        return statNapotPromotions.value();
    }
    std::uint64_t hugePromotions() const
    {
        return statHugePromotions.value();
    }
    std::uint64_t hugeSplits() const { return statHugeSplits.value(); }
    std::uint64_t hugeReclaims() const { return statHugeReclaims.value(); }

    // ---- HWDP hook points -------------------------------------------------
    /**
     * Early-fault interceptor (the SW-emulated SMU), given the fault's
     * walk references. Returns true when it takes ownership.
     */
    using FaultInterceptor = std::function<bool(
        Thread &, AddressSpace &, VAddr, const WalkRefs &,
        std::function<void()>)>;
    void setFaultInterceptor(FaultInterceptor fn)
    {
        interceptor = std::move(fn);
    }

    /** Overlapped free-page-queue refill during OS-fault device I/O. */
    void setRefillHook(std::function<void(unsigned core)> fn)
    {
        refillHook = std::move(fn);
    }

    /**
     * CXL tier lookup by block-layer device index (tierMode=cxl; unset
     * at off — every fault then sees a null tier at zero cost). The
     * OSDP fault path probes it before cutting a bio and installs
     * SSD-fetched pages on completion.
     */
    void setTierLookup(std::function<tier::CxlBuffer *(unsigned)> fn)
    {
        tierOf = std::move(fn);
    }
    tier::CxlBuffer *tierForDevice(unsigned dev_idx) const
    {
        return tierOf ? tierOf(dev_idx) : nullptr;
    }

    struct HwdpHooks
    {
        /** kpted-style sync of a VMA range, then done. */
        std::function<void(AddressSpace &, VAddr, VAddr, unsigned,
                           std::function<void()>)> syncMetadata;
        /** Wait for outstanding SMU page misses (SMU barrier). */
        std::function<void(std::function<void()>)> smuBarrier;
    };
    void setHwdpHooks(HwdpHooks hooks) { hwdpHooks = std::move(hooks); }

    /** TLB shootdown callback (registered by the CPU layer). */
    void setShootdownFn(Rmap::ShootdownFn fn);

    /**
     * Invoked after every kpted-style metadata sync rewrites a
     * hardware-handled PTE (registered by the CPU layer): the walkers'
     * page-walk caches drop the affected upper entries, the coherence
     * a real paging-structure cache needs on PTE maintenance.
     */
    void setPteSyncFn(std::function<void(AddressSpace &, VAddr)> fn)
    {
        pteSyncFn = std::move(fn);
    }

    // ---- Fault statistics -------------------------------------------------
    std::uint64_t majorFaults() const { return statMajor.value(); }
    std::uint64_t minorFaults() const { return statMinor.value(); }
    std::uint64_t smuFallbackFaults() const
    {
        return statSmuFallback.value();
    }
    std::uint64_t oomKills() const { return statOomKills.value(); }
    sim::Histogram &faultLatencyUs() { return statFaultLatency; }

    /**
     * Checkpoint the whole OS layer: kernel rng, phase accounting,
     * scheduler, file system, block layer, rmap, reclaimer, page
     * cache, per-frame metadata (file/space references encoded as
     * file id / asid), every address space and the WAL chunk
     * accumulator. Only valid at quiesce.
     */
    void serialize(sim::Serializer &s);

  private:
    friend class FaultHandler;

    KernelParams prm;
    mem::PhysMem &pm;
    sim::Rng rng;

    std::unique_ptr<KernelExec> kernelExec;
    std::unique_ptr<Scheduler> sched;
    std::unique_ptr<FileSystem> fileSystem;
    std::unique_ptr<BlockLayer> blk;
    std::unique_ptr<Rmap> reverseMap;
    std::unique_ptr<Reclaimer> reclaim;
    std::unique_ptr<FaultHandler> faults;
    PageCache pcache;

    std::vector<Page> framePages;
    std::vector<std::unique_ptr<AddressSpace>> spaces;

    struct AttachedDevice
    {
        BlockDeviceId bdev;
        unsigned blkIndex;
    };
    std::vector<AttachedDevice> attached;

    /** Per-file partially filled writeback chunk (in pages). */
    std::unordered_map<std::uint32_t, std::uint64_t> walDirtyBytes;

    FaultInterceptor interceptor;
    std::function<void(unsigned)> refillHook;
    std::function<tier::CxlBuffer *(unsigned)> tierOf;
    HwdpHooks hwdpHooks;
    Rmap::ShootdownFn shootdownFn;
    std::function<void(AddressSpace &, VAddr)> pteSyncFn;
    ShootdownRangeFn shootdownRangeFn;
    std::function<bool()> hugeSplitHook;

    void shootdownRange(AddressSpace &as, VAddr va, std::uint64_t pages,
                        bool delayable)
    {
        if (shootdownRangeFn)
            shootdownRangeFn(as, va, pages, delayable);
    }

    /** PTE population for a fast-mmap area. */
    void populateFastVma(AddressSpace &as, File &file, Vma *vma);

    sim::Counter statMajor;
    sim::Counter statMinor;
    sim::Counter statSmuFallback;
    sim::Counter statMmapCalls; ///< Never bumped: every mmap is boot-time.
    sim::Counter statMunmapCalls;
    sim::Counter statWalWrites;
    sim::Counter statOomKills;
    sim::Histogram statFaultLatency;

    /** Translation-reach counters, registered at pageMode != off. */
    sim::Counter statThpFaults;
    sim::Counter statNapotPromotions;
    sim::Counter statNapotBreaks;
    sim::Counter statHugePromotions;
    sim::Counter statHugeSplits;
    sim::Counter statHugeReclaims;
};

} // namespace hwdp::os

#endif // HWDP_OS_KERNEL_HH
