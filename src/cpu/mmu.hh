/**
 * @file
 * Memory management unit: TLB + walker + page-miss routing.
 *
 * The MMU performs every user memory access for one logical core:
 * TLB lookup, page-table walk on a miss, then — for a non-present
 * page — either the conventional exception (OSDP) or a page-miss
 * request to the SMU identified by the PTE's socket id (HWDP,
 * Section III). While the SMU works, the core's pipeline is stalled:
 * the thread keeps the logical core but consumes no issue slots,
 * which the scheduler's width-share model exposes to the SMT sibling.
 *
 * Access protocol (the zero-event fast path): access() attempts to
 * complete the access synchronously. A TLB hit or a walk that finds a
 * present PTE returns true with the access latency in the out
 * parameter — no event is posted and nothing is allocated; the caller
 * accrues the latency into its logical clock. Only a real page miss
 * engages the slow path: the access parks in a pooled PendingAccess
 * node (recycled through a free list) and the completion is delivered
 * through the AccessSink interface. Every slow-path continuation
 * captures exactly [this, pending] — two pointers, inside the
 * std::function small-object buffer — so retries no longer copy
 * allocation-heavy closure chains.
 */

#ifndef HWDP_CPU_MMU_HH
#define HWDP_CPU_MMU_HH

#include <functional>
#include <memory>
#include <vector>

#include "cpu/tlb.hh"
#include "cpu/walker.hh"
#include "os/kernel.hh"
#include "sim/sim_object.hh"

namespace hwdp::cpu {

/** A page-miss request handed to an SMU (Section III-C, Figure 7). */
struct PageMissRequest
{
    os::WalkRefs refs;       ///< PUD entry, PMD entry and PTE refs.
    unsigned sid = 0;
    unsigned dev = 0;
    Lba lba = 0;
    os::AddressSpace *as = nullptr;
    VAddr vaddr = 0;
    unsigned core = 0;       ///< Requesting logical core.

    /** Set for SMU-generated prefetch fills (no walker waits). */
    bool isPrefetch = false;

    /** Invoked with success=false when the SMU must bounce to the OS. */
    std::function<void(bool success)> done;
};

/** The request for a miss whose PTE (@p refs) decodes to @p target. */
inline PageMissRequest
makeMissRequest(const os::WalkRefs &refs, const os::pte::LbaTarget &target,
                os::AddressSpace *as, VAddr vaddr, unsigned core)
{
    PageMissRequest req;
    req.refs = refs;
    req.sid = target.sid;
    req.dev = target.dev;
    req.lba = target.lba;
    req.as = as;
    req.vaddr = vaddr & ~pageOffsetMask;
    req.core = core;
    return req;
}

/** Implemented by core::Smu. */
class PageMissHandlerIface
{
  public:
    virtual ~PageMissHandlerIface() = default;

    /**
     * Deliver @p req at logical time @p at (>= now()), the tick the
     * request register writes start. The handler runs the miss inline
     * on the logical clock when its timing gate proves nothing else
     * can execute first, and otherwise posts its event path from
     * @p at; simulated results are bit-identical whichever runs.
     */
    virtual void handleMiss(PageMissRequest req, Tick at) = 0;
};

/** Outcome summary delivered with the access completion. */
struct AccessInfo
{
    bool faulted = false;     ///< Any miss handling happened.
    bool hwHandled = false;   ///< Handled by the SMU without the OS.
    Tick latency = 0;         ///< Total access latency.
};

/**
 * Receiver of slow-path access completions. ThreadContext implements
 * this; the callback carries no owning state, so completing an access
 * allocates nothing.
 */
class AccessSink
{
  public:
    virtual void accessDone(const AccessInfo &info) = 0;

  protected:
    ~AccessSink() = default;
};

class Mmu : public sim::SimObject
{
  public:
    Mmu(std::string name, sim::EventQueue &eq, unsigned logical_core,
        mem::CacheHierarchy &caches, os::Kernel &kernel);

    /**
     * Register the SMU responsible for socket @p sid (PTEs carry the
     * socket id of their home SMU).
     */
    void attachSmu(unsigned sid, PageMissHandlerIface *smu);

    /**
     * Long-latency remedy (Section V): when a hardware miss stalls
     * the pipeline longer than this, raise a timeout exception and
     * context-switch; the completion wakes the thread. 0 disables.
     */
    void setStallTimeout(Tick t) { stallTimeout = t; }

    std::uint64_t stallTimeouts() const { return statTimeout.value(); }

    /**
     * NUMA wiring for data accesses: the core's socket and the frame
     * partition (frame -> home node); an LLC-missing access to a
     * frame on a remote node pays numaRemoteExtraCycles. Forwards the
     * walk-step model to the walker. Not called on single-socket
     * machines — the access path is then unchanged.
     */
    void
    setNuma(unsigned my_socket, const mem::PhysMem *frame_map,
            unsigned n_sockets)
    {
        mySocket = my_socket;
        numaPm = frame_map;
        walkUnit.setNuma(my_socket, n_sockets);
        stats().add(statRemoteDram);
    }

    /**
     * Perform a user memory access on behalf of thread @p t, issued
     * @p defer ticks into the caller's inline batch (logical issue
     * time = now() + defer).
     *
     * @return true when the access completed synchronously (TLB hit
     * or present PTE); @p out holds the access latency and the caller
     * accrues it. false when a page miss engaged the slow path: the
     * completion arrives later through @p sink (always from a posted
     * event, at real simulated time).
     */
    bool access(os::Thread &t, os::AddressSpace &as, VAddr vaddr,
                bool is_write, Tick defer, AccessSink &sink,
                AccessInfo &out);

    Tlb &tlb() { return tlbUnit; }
    Walker &walker() { return walkUnit; }

    std::uint64_t hwMisses() const { return statHwMiss.value(); }
    std::uint64_t osFaults() const { return statOsFault.value(); }
    std::uint64_t smuRejections() const { return statSmuReject.value(); }

    /**
     * Checkpoint the TLB, walker and pending-node pool bookkeeping.
     * Every pool node must be idle (no access in flight).
     */
    void serialize(sim::Serializer &s);

  private:
    /**
     * One parked slow-path access. Nodes are pool-owned and recycled
     * through a free list; the generation counter lets the stall
     * timeout detect that its access already completed and the node
     * was reused.
     */
    struct Pending
    {
        os::Thread *t = nullptr;
        os::AddressSpace *as = nullptr;
        VAddr vaddr = 0;
        bool write = false;
        bool lastSuccess = false; ///< SMU verdict for a woken thread.
        bool completed = false;   ///< SMU replied (this engagement).
        bool switched = false;    ///< Stall timeout fired (ditto).
        unsigned attempts = 0;
        std::uint32_t gen = 0;
        Tick start = 0;           ///< Logical issue time.
        AccessInfo info;
        AccessSink *sink = nullptr;
        Pending *nextFree = nullptr;
    };

    unsigned core;
    unsigned physCore;
    mem::CacheHierarchy &caches;
    os::Kernel &kernel;
    Tick stallTimeout = 0;

    unsigned mySocket = 0;
    const mem::PhysMem *numaPm = nullptr; ///< nullptr: single socket.
    Tlb tlbUnit;
    Walker walkUnit;
    std::vector<PageMissHandlerIface *> smus; // by socket id

    std::vector<std::unique_ptr<Pending>> pendingPool;
    Pending *pendingFree = nullptr;

    sim::Counter statAccesses;
    sim::Counter statHwMiss;
    sim::Counter statOsFault;
    sim::Counter statSmuReject;
    sim::Counter statTimeout;
    sim::Counter statRemoteDram; ///< Registered when NUMA is wired.

    Pending *acquirePending();
    void releasePending(Pending *p);

    enum class Translation { tlbHit, walked, miss };

    /**
     * The synchronous half of an access: a TLB hit, or a walk that
     * finds a present PTE (filling the TLB), sets @p lat to the
     * access latency including the data access. A miss leaves the
     * walk's outcome in @p wo.
     */
    Translation translate(os::AddressSpace &as, VAddr vaddr,
                          bool is_write, Tick &lat, Walker::Outcome &wo);

    /** Route a walk miss outcome (SMU request or OS exception). */
    void startMiss(Pending *p, const Walker::Outcome &out, Tick defer);

    /** Re-translate after miss handling; completes or re-misses. */
    void retry(Pending *p);

    /** Deliver the completion @p lat ticks from now and recycle @p p. */
    void complete(Pending *p, Tick lat, const char *ev_name);

    /** PageMissRequest::done target. */
    void missDone(Pending *p, bool success);
    void resumeMiss(Pending *p, bool success);
    void stallTimeoutFired(Pending *p, std::uint32_t gen, unsigned att);

    /** Data access through the hierarchy once translated. */
    Tick dataAccess(VAddr vaddr, Pfn pfn, bool is_write);
};

} // namespace hwdp::cpu

#endif // HWDP_CPU_MMU_HH
