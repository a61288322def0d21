#include "core/miss_engine.hh"

#include "sim/serialize.hh"
#include "tier/cxl_buffer.hh"

namespace hwdp::core {

MissEngine::Stats::Stats(bool emulated)
    : handled("handled", emulated ? "misses handled by the emulation"
                                  : "page misses completed in hardware"),
      queueEmpty(emulated ? "queue_empty" : "rejected_queue_empty",
                 emulated ? "bounces to the normal path: queue empty"
                          : "bounces: free page queue empty"),
      latencyUs("miss_latency_us",
                emulated ? "SW-emulated miss latency (us)"
                         : "hardware miss handling latency (us)",
                0.5, 400)
{
}

MissEngine::MissEngine(os::Kernel &kernel, unsigned bound, bool emulated)
    : kernel(kernel), table(bound), st(emulated)
{
}

void
MissEngine::serialize(sim::Serializer &s)
{
    if (!barrierWaiters.empty())
        throw sim::SerializeError(
            "checkpoint: SMU barrier outstanding; quiesce the machine "
            "first");
    table.serialize(s);
}

MissEngine::Start
MissEngine::start(cpu::PageMissRequest &req, FreePageQueue &fpq,
                  Tick pop_latency, Tick started)
{
    // (1) Outstanding miss to the same page? Coalesce onto it.
    int slot = find(req.refs.pte.addr);
    if (slot >= 0) {
        ++st.coalesced;
        return {Route::coalesce, slot};
    }

    // (2) Allocate an entry.
    slot = table.allocate(req.refs.pte.addr);
    if (slot < 0) {
        ++st.full;
        return {Route::full};
    }

    // (3) Fetch a free frame.
    auto pop = fpq.pop(pop_latency);
    if (!pop.ok) {
        table.invalidate(slot);
        ++st.queueEmpty;
        return {Route::queueEmpty};
    }

    Pmshr::Entry &e = table.entry(slot);
    e.pfn = pop.pfn;
    e.fpq = &fpq;
    e.started = started;
    Start s{Route::device, slot, pop.latency};
    if (req.lba == os::pte::zeroFillLba) {
        // First-touch anonymous page: the reserved LBA says to bypass
        // I/O and zero-fill the frame (Section V).
        ++st.zeroFills;
        s.route = Route::zeroFill;
    } else if (tierBuf) {
        // A page resident in the CXL buffer is served by one load,
        // with no NVMe command at all.
        auto tl = tierBuf->tryLoad(tierDevBase + req.dev, req.lba);
        if (tl.hit) {
            e.fromTier = true;
            ++st.tierHits;
            s.route = Route::tier;
            s.latency += tl.latency;
        }
    }
    e.req = std::move(req);
    return s;
}

MissEngine::Completion
MissEngine::complete(int slot, std::uint16_t status)
{
    Pmshr::Entry &e = table.entry(slot);
    if (status != 0) {
        if (!e.retried) {
            // Media errors are frequently transient: retry once. The
            // entry stays live so duplicate misses keep coalescing
            // onto it meanwhile.
            e.retried = true;
            ++st.ioRetries;
            return Completion::retry;
        }
        // Persistent error: bounce to the OS, which owns the recovery
        // policy (Section IV-D). The frame goes back untouched, or to
        // the kernel when a refill has filled the queue meanwhile.
        ++st.rejectedIoError;
        if (!e.fpq->push(e.pfn))
            kernel.freePage(kernel.page(e.pfn));
        return Completion::bounce;
    }

    // Tier admission (inclusion on read): a device-read page installs
    // into the buffer so the next miss to it is a sub-us load. A full
    // buffer rejects and kicks ktierd; eviction never runs on the
    // fault path.
    if (tierBuf && !e.fromTier && e.req.lba != os::pte::zeroFillLba)
        tierBuf->admit(tierDevBase + e.req.dev, e.req.lba, false);
    return Completion::filled;
}

void
MissEngine::retire(int slot, bool ok, Tick at)
{
    Pmshr::Entry &e = table.entry(slot);
    if (ok) {
        // Model bookkeeping: the frame left the free page queue (the
        // OS flag exists so reclaim never touches donated frames).
        kernel.page(e.pfn).inSmuQueue = false;
        ++st.handled;
        st.latencyUs.sample(toMicroseconds(at - e.started));
    }
    Waiter done = std::move(e.req.done);
    std::vector<Waiter> waiters = std::move(e.waiters);
    table.invalidate(slot);

    done(ok);
    for (auto &w : waiters)
        w(ok);
    checkBarrier();
}

void
MissEngine::barrier(std::function<void()> done)
{
    if (table.occupancy() == 0) {
        done();
        return;
    }
    barrierWaiters.push_back(std::move(done));
}

void
MissEngine::checkBarrier()
{
    if (table.occupancy() != 0 || barrierWaiters.empty())
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &w : waiters)
        w();
}

} // namespace hwdp::core
