/**
 * @file
 * The OSDP page-fault handler.
 *
 * Implements the conventional fault path the paper measures in
 * Figure 3: exception entry, VMA lookup, page allocation, I/O
 * submission through the block layer, context switch while the device
 * works, interrupt-driven completion, wakeup, metadata update and
 * PTE update + return. The same path also serves as the fallback when
 * the SMU cannot take a miss (PMSHR full or free-page queue empty),
 * in which case it additionally triggers the overlapped queue refill
 * (Section IV-D).
 */

#ifndef HWDP_OS_FAULT_HANDLER_HH
#define HWDP_OS_FAULT_HANDLER_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "os/vma.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

class Kernel;
class Thread;

class FaultHandler
{
  public:
    explicit FaultHandler(Kernel &kernel);

    void handle(Thread &t, AddressSpace &as, VAddr vaddr, bool is_write,
                bool smu_fallback, std::function<void()> resume);

    /**
     * Checkpoint guard: the handler keeps no logical state beyond the
     * in-flight fault table, which must be empty at quiesce.
     */
    void serialize(sim::Serializer &s);

  private:
    Kernel &k;

    struct Ctx
    {
        Thread *t;
        AddressSpace *as;
        VAddr vaddr;
        bool write;
        bool fallback;
        Tick start;
        std::function<void()> resume;
        Vma *vma = nullptr;
        Pfn pfn = 0;
        unsigned allocRetries = 0;
        /** Served by the CXL tier buffer (no bio was issued). */
        bool fromTier = false;
        /**
         * Non-zero: this fault fills a whole naturally aligned 2 MB
         * window (thp/coalesce modes) and @c pfn is the head of a
         * 512-frame contiguous run. Zero means a normal 4 KB fault
         * (user mappings live in the canonical upper half, so 0 never
         * collides with a real window base).
         */
        VAddr hugeWin = 0;
    };
    using CtxPtr = std::shared_ptr<Ctx>;

    void afterEntry(CtxPtr c);
    void lookupVma(CtxPtr c);
    void anonFault(CtxPtr c);
    void minorFault(CtxPtr c, Pfn cached);
    void majorFault(CtxPtr c);
    void allocateFrame(CtxPtr c);
    void submitIo(CtxPtr c);
    void ioFinished(CtxPtr c);
    void finish(CtxPtr c, bool minor);

    /**
     * Attempt a 2 MB transparent-huge-page fill for an anonymous
     * fault. Returns true when the huge path took over; false falls
     * through to the 4 KB path (mode off, fastMmap VMA, ineligible
     * window, or no contiguous run free).
     */
    bool tryHugeAnon(CtxPtr c);

    /**
     * Attempt a 2 MB file-backed fill: one faultRead covers the whole
     * window (the single-command 2 MB read simplification, see
     * DESIGN.md §6j). Registers all 512 in-flight keys so concurrent
     * 4 KB faulters inside the window pile up on the huge read.
     */
    bool tryHugeMajor(CtxPtr c);

    /** Wake waiters on and release all 512 keys of c->hugeWin. */
    void unlockWindow(CtxPtr c);

    /** Wake the faulters waiting on @p key and release the key. */
    void wakeWaiters(std::uint64_t key);

    /**
     * Allocation retries are exhausted: offer the thread an OOM kill.
     * Returns true when the thread absorbed it (the fault is dropped);
     * false means the caller must panic — a thread that cannot die
     * here (a kthread) with no memory left is bookkeeping corruption.
     */
    bool oomKill(CtxPtr c, bool major);

    /**
     * Major faults in flight, keyed by (file id, page index). Later
     * faulters on the same page wait for the first one's I/O instead
     * of issuing a duplicate read (the lock_page serialisation in a
     * real kernel).
     */
    std::unordered_map<std::uint64_t, std::vector<CtxPtr>> inflight;
};

} // namespace hwdp::os

#endif // HWDP_OS_FAULT_HANDLER_HH
