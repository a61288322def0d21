/**
 * @file
 * System: assembles and drives one simulated machine.
 *
 * Owns the event queue, physical memory, caches, branch predictors,
 * the kernel, the SSD, the HWDP machinery appropriate to the
 * configured paging mode (and the kernel hooks that wire it in), the
 * per-core MMUs and the workload threads.
 * Benches build a System per configuration, map a dataset, add
 * threads and run to completion.
 */

#ifndef HWDP_SYSTEM_SYSTEM_HH
#define HWDP_SYSTEM_SYSTEM_HH

#include <deque>
#include <memory>
#include <vector>

#include "core/kcoalesced.hh"
#include "core/kpoold.hh"
#include "core/kpted.hh"
#include "core/smu.hh"
#include "core/software_smu.hh"
#include "cpu/core.hh"
#include "cpu/thread_context.hh"
#include "system/machine_config.hh"
#include "system/socket.hh"
#include "tier/cxl_buffer.hh"
#include "tier/ktierd.hh"

namespace hwdp::system {

class System
{
  public:
    explicit System(const MachineConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // ---- Machine access ------------------------------------------------
    const MachineConfig &config() const { return cfg; }
    sim::EventQueue &eventQueue() { return eq; }
    os::Kernel &kernel() { return *kern; }
    mem::PhysMem &physMem() { return *pm; }
    mem::CacheHierarchy &caches() { return *hierarchy; }
    ssd::SsdDevice &ssd() { return *ssds.front(); }
    cpu::Core &core(unsigned i) { return *cores.at(i); }

    core::Smu *smu()
    {
        return smuUnits.empty() ? nullptr : smuUnits.front().get();
    }
    core::SoftwareSmu *softwareSmu()
    {
        return swSmus.empty() ? nullptr : swSmus.front().get();
    }
    core::Kpted *kpted() { return kptedThread.get(); }
    core::Kpoold *kpoold() { return kpooldThread.get(); }
    /** Non-null only when pageMode == coalesce. */
    core::Kcoalesced *kcoalesced() { return kcoalescedThread.get(); }
    core::FreePageQueue *freePageQueue();

    // ---- Socket topology -------------------------------------------------
    unsigned numSockets() const { return cfg.sockets; }
    Socket &socketAt(unsigned s) { return socketTopo.at(s); }
    const std::deque<Socket> &socketTopology() const
    {
        return socketTopo;
    }
    core::Smu *smuAt(unsigned s)
    {
        return s < smuUnits.size() ? smuUnits[s].get() : nullptr;
    }
    core::SoftwareSmu *softwareSmuAt(unsigned s)
    {
        return s < swSmus.size() ? swSmus[s].get() : nullptr;
    }

    /** Socket @p s's CXL buffer; nullptr at tierMode=off. */
    tier::CxlBuffer *tierAt(unsigned s)
    {
        return s < tiers.size() ? tiers[s].get() : nullptr;
    }
    /** The tier eviction daemon; nullptr at tierMode=off. */
    tier::Ktierd *ktierd() { return ktierdThread.get(); }

    /**
     * Fault injection on the cross-socket shootdown fan-out (the
     * kpted-sync path only — unmap shootdowns are never perturbed, a
     * stale PWC entry there could outlive its table). Queried once
     * per remote socket per sync broadcast, so a seeded plan stays
     * schedule-stable.
     */
    struct ShootdownFault
    {
        bool drop = false; ///< Skip this socket's PWC invalidation.
        Tick delay = 0;    ///< Apply it this much later (0: now).
    };
    using ShootdownFaultHook = std::function<ShootdownFault(unsigned)>;
    void setShootdownFaultHook(ShootdownFaultHook fn)
    {
        shootdownFaultHook = std::move(fn);
    }

    /**
     * staleWideTlb fault site: queried on every *delayable* wide-range
     * shootdown (promotion/split broadcasts, where the frames stay in
     * place); a returned tick > 0 applies the whole broadcast that
     * much later, leaving stale wide TLB entries resident in the
     * window. Unmap/eviction broadcasts never consult it.
     */
    using WideShootdownHook = std::function<Tick()>;
    void setWideShootdownHook(WideShootdownHook fn)
    {
        wideShootdownHook = std::move(fn);
    }

    /** Delayable wide shootdowns the hook actually deferred. */
    std::uint64_t wideShootdownsDelayed() const
    {
        return statWideShootdownsDelayed.value();
    }

    /** TLB hits served by wide (NAPOT / 2 MB) entries, all cores. */
    std::uint64_t totalTlbWideHits() const;

    /** Number of attached block devices. */
    unsigned numSsds() const
    {
        return static_cast<unsigned>(ssds.size());
    }
    ssd::SsdDevice &ssdAt(unsigned d) { return *ssds.at(d); }

    // ---- Boot-time setup (untimed) --------------------------------------
    /** Create a file on block device @p device. */
    os::File *createFile(const std::string &name, std::uint64_t pages,
                         unsigned device = 0);

    struct MappedFile
    {
        os::File *file = nullptr;
        os::Vma *vma = nullptr;
        os::AddressSpace *as = nullptr;
    };

    /**
     * Create and map a dataset file. Fast-mmap is used when the mode
     * is not OSDP, and kpted scans the VMA from then on.
     * @param as Reuse an address space (threads of one process);
     *           nullptr creates one.
     */
    MappedFile mapDataset(const std::string &name, std::uint64_t pages,
                          os::AddressSpace *as = nullptr,
                          unsigned device = 0);

    /**
     * Anonymous mapping (heap-like). Under HWDP/SW-SMU the PTEs carry
     * the zero-fill LBA: first touches are handled without the OS
     * (the Section V extension).
     */
    MappedFile mapAnon(std::uint64_t pages,
                       os::AddressSpace *as = nullptr);

    /** MAP_POPULATE: install every page resident (the ideal config). */
    void preload(const MappedFile &mf);

    /**
     * Boot/warm-time frame allocation: single-socket machines take
     * the plain allocator path; multi-socket machines interleave by
     * @p seq so a preloaded dataset spreads evenly across nodes.
     */
    Pfn allocFrameInterleaved(std::uint64_t seq)
    {
        return cfg.sockets > 1
                   ? physMem().alloc(static_cast<unsigned>(
                         seq % cfg.sockets))
                   : physMem().alloc();
    }

    /** Add a workload thread pinned to @p core_idx. */
    cpu::ThreadContext *addThread(workloads::Workload &wl,
                                  unsigned core_idx,
                                  os::AddressSpace &as);

    const std::vector<std::unique_ptr<cpu::ThreadContext>> &
    threads() const
    {
        return tcs;
    }

    // ---- Running ---------------------------------------------------------
    /** Start the scheduler and prime the HWDP control plane. */
    void start();

    /**
     * Run until every workload thread finished (or @p max_ticks).
     * @return true when all threads completed.
     */
    bool runUntilThreadsDone(Tick max_ticks = seconds(30.0));

    /** Run for a fixed simulated duration (open-ended workloads). */
    void runFor(Tick duration);

    /** Stop periodic kthreads so the event queue can drain. */
    void stopKthreads();

    // ---- Checkpointing ---------------------------------------------------
    /**
     * Bring the machine to a checkpointable state: stop the periodic
     * kthreads and drain the event queue. Requires every workload
     * thread to have finished (an unbounded workload never drains);
     * throws sim::SerializeError otherwise. Call resumeKthreads() to
     * continue running afterwards — both the straight and the restored
     * path must do so, so the re-armed timers land on identical ticks
     * with identical event sequence numbers.
     */
    void quiesce();

    /** Re-arm the periodic kthreads after quiesce() or a restore. */
    void resumeKthreads();

    /**
     * Checkpoint every component in a fixed order, then every
     * registered stat in one section. Save side requires
     * quiesce(); load side requires a machine built by the *same boot
     * recipe* (same config, files, mappings, threads) that was never
     * started — boot structure is verified, logical state overwritten.
     * Use system::Checkpoint for the versioned header + file I/O.
     */
    void serialize(sim::Serializer &s);

    /** Called by Checkpoint::restore once the blob is applied. */
    void onRestored(std::uint64_t blob_bytes);

    /** Config dump plus the checkpoint provenance line. */
    std::string describe() const;

    Tick now() const { return eq.now(); }

    // ---- Aggregate measurements ------------------------------------------
    /** Total application ops completed across threads. */
    std::uint64_t totalAppOps() const;

    /** Ops per simulated second over the span of thread execution. */
    double throughputOpsPerSec() const;

    /** Aggregate user IPC across workload threads. */
    double aggregateUserIpc() const;

    /** Aggregate user-mode branch misprediction count. */
    std::uint64_t userBranchMispredicts() const;
    std::uint64_t userBranchLookups() const;

    /** Page-walk-cache hits/misses summed over every core's walker. */
    std::uint64_t totalPwcHits() const;
    std::uint64_t totalPwcMisses() const;

  private:
    MachineConfig cfg;
    sim::EventQueue eq;
    sim::Rng rng;

    /**
     * System's own counters, on the machine's list (first) only when
     * a page mode is on: wide shootdowns exist only then.
     */
    sim::StatGroup grp{"system", cfg.pageMode != PageMode::off
                                     ? &eq.statRegistry()
                                     : nullptr};
    sim::Counter statWideShootdownsDelayed{
        grp, "wide_shootdowns_delayed",
        "delayable wide shootdowns the hook deferred"};

    std::unique_ptr<mem::PhysMem> pm;
    std::unique_ptr<mem::CacheHierarchy> hierarchy;
    std::vector<mem::BranchPredictor> bps;
    std::unique_ptr<os::Kernel> kern;
    std::vector<std::unique_ptr<ssd::SsdDevice>> ssds;
    std::vector<std::unique_ptr<cpu::Core>> cores;

    /** One per socket, index = socket id (hwdp mode). */
    std::vector<std::unique_ptr<core::Smu>> smuUnits;
    /** One per socket, index = socket id (swsmu mode only). */
    std::vector<std::unique_ptr<core::SoftwareSmu>> swSmus;

    /**
     * Topology view; built for every machine (size 1 at one socket).
     * A deque: sockets own stat groups, so they never move.
     */
    std::deque<Socket> socketTopo;
    ShootdownFaultHook shootdownFaultHook;
    WideShootdownHook wideShootdownHook;
    std::unique_ptr<core::Kpted> kptedThread;
    std::unique_ptr<core::Kpoold> kpooldThread;
    std::unique_ptr<core::Kcoalesced> kcoalescedThread;

    /** One per socket and the eviction daemon (tierMode=cxl only). */
    std::vector<std::unique_ptr<tier::CxlBuffer>> tiers;
    std::unique_ptr<tier::Ktierd> ktierdThread;

    std::vector<std::unique_ptr<workloads::Workload>> ownedWorkloads;
    std::vector<std::unique_ptr<cpu::ThreadContext>> tcs;
    std::uint64_t threadsDone = 0;
    bool started = false;

    /** describe() provenance: cold boot or restored-from-blob. */
    std::string ckptNote;

    /**
     * Drop PWC entries covering @p va from every core's walker,
     * bumping the per-socket shootdown epochs on multi-socket
     * machines. @p sync_path marks kpted-sync broadcasts, the only
     * ones the shootdown fault hook may drop or delay.
     */
    void pwcShootdown(os::AddressSpace &as, VAddr va, bool sync_path);

    /**
     * Wide-range shootdown (pageMode != off): invalidate [va,
     * va + pages * 4 KB) in every core's TLB (reach-aware) and drop
     * the covering PWC upper entries; multi-socket machines advance
     * every socket's epoch, the same coherence event the 4 KB path
     * counts.
     */
    void rangeShootdown(os::AddressSpace &as, VAddr va,
                        std::uint64_t pages, bool delayable);

    /** True when a walker of cores [first, first + n) holds PWC entries. */
    bool anyPwcHeld(unsigned first, unsigned n) const;

    /** Drop @p refs' PUD and PMD entries from cores [first, first + n). */
    void dropPwc(const os::WalkRefs &refs, unsigned first, unsigned n);

  public:
    /** Transfer ownership of a workload to the system (lifetime). */
    template <typename W, typename... Args>
    W *
    makeWorkload(Args &&...args)
    {
        auto w = std::make_unique<W>(std::forward<Args>(args)...);
        W *raw = w.get();
        ownedWorkloads.push_back(std::move(w));
        return raw;
    }
};

} // namespace hwdp::system

#endif // HWDP_SYSTEM_SYSTEM_HH
