/**
 * @file
 * The page-miss lifecycle the hardware SMU and its software emulation
 * (Section VI-A) both drive: PMSHR table, frame pop, fill routing,
 * retry then bounce, PTE update, retire, barrier and counters. Each
 * unit adds its costs and delivery (DESIGN.md §6k). The engine never
 * reads the clock, so the SMU can run it inline ahead of now().
 */

#ifndef HWDP_CORE_MISS_ENGINE_HH
#define HWDP_CORE_MISS_ENGINE_HH

#include <functional>
#include <vector>

#include "core/free_page_queue.hh"
#include "core/pmshr.hh"
#include "core/pt_updater.hh"
#include "cpu/mmu.hh"
#include "os/kernel.hh"
#include "sim/stats.hh"

namespace hwdp::tier {
class CxlBuffer;
}

namespace hwdp::core {

class MissEngine
{
  public:
    /** What start() made of a miss; full and queueEmpty bounce. */
    enum class Route { coalesce, full, queueEmpty, zeroFill, tier, device };

    struct Start
    {
        Route route = Route::device;
        int slot = -1;
        Tick latency = 0; ///< Frame pop, plus the load on a tier hit.
    };

    /** What a fill's completion asks of the unit. */
    enum class Completion { filled, retry, bounce };

    /**
     * Unregistered counters: each unit adds the ones its dump shows,
     * in its order; @p emulated names three as the emulation's dump.
     */
    struct Stats
    {
        explicit Stats(bool emulated);

        sim::Counter handled;
        sim::Counter queueEmpty;
        sim::Histogram latencyUs;
        sim::Counter zeroFills{"zero_fills",
                               "anonymous first-touch misses zero-filled"};
        sim::Counter coalesced{"coalesced", "duplicate misses coalesced"};
        sim::Counter full{"rejected_pmshr_full", "bounces: PMSHR full"};
        sim::Counter ioRetries{"io_retries",
                               "NVMe error completions retried once"};
        sim::Counter rejectedIoError{
            "rejected_io_error", "bounces: NVMe error persisted after retry"};
        sim::Counter tierHits{"tier_hits", "misses served by the CXL tier"};
    };

    using Waiter = std::function<void(bool)>;

    /** @param bound Table entries (a unit's outstanding misses). */
    MissEngine(os::Kernel &kernel, unsigned bound, bool emulated);

    /**
     * Figure 7's steps (1)-(3): coalesce onto the miss on the same PTE,
     * or allocate an entry, pop a frame and route the fill. A fill
     * route moves @p req into the entry; @p started begins its sample.
     */
    Start start(cpu::PageMissRequest &req, FreePageQueue &fpq,
                Tick pop_latency, Tick started);

    /** The outstanding miss on @p pte_addr's page; -1 when none. */
    int find(PAddr pte_addr) const { return table.lookup(pte_addr); }

    /** @p w runs when the miss in @p slot retires. */
    void join(int slot, Waiter w)
    {
        table.entry(slot).waiters.push_back(std::move(w));
    }

    /**
     * A fill finished with NVMe @p status: an error retries once, then
     * bounces with the frame back in its queue; a device read admits
     * the page to the tier.
     */
    Completion complete(int slot, std::uint16_t status);

    /** Write the PTE (LBA bit kept for kpted) and mark PMD/PUD. */
    void updatePageTable(int slot)
    {
        const Pmshr::Entry &e = table.entry(slot);
        updater.update(e.req, e.pfn);
    }

    /**
     * Take the miss out of the table, resume its waiters with @p ok,
     * then release a barrier; until then new faulters join the miss.
     */
    void retire(int slot, bool ok, Tick at);

    /** Section IV-C: @p done fires once no miss is outstanding. */
    void barrier(std::function<void()> done);

    /** CXL buffer; @p dev_base maps local device ids to its indices. */
    void setTier(tier::CxlBuffer *t, unsigned dev_base)
    {
        tierBuf = t;
        tierDevBase = dev_base;
    }

    const Pmshr::Entry &miss(int slot) const { return table.entry(slot); }
    Pmshr &pmshr() { return table; }
    const Pmshr &pmshr() const { return table; }
    PageTableUpdater &ptUpdater() { return updater; }
    Stats &stats() { return st; }
    const Stats &stats() const { return st; }

    /** Checkpoint the table geometry; requires no miss or barrier. */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    Pmshr table;
    PageTableUpdater updater;
    std::vector<std::function<void()>> barrierWaiters;
    tier::CxlBuffer *tierBuf = nullptr; ///< nullptr at tierMode=off.
    unsigned tierDevBase = 0;
    Stats st;

    void checkBarrier();
};

} // namespace hwdp::core

#endif // HWDP_CORE_MISS_ENGINE_HH
