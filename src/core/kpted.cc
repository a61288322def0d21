#include "core/kpted.hh"

#include "sim/serialize.hh"

namespace hwdp::core {

void
Kpted::serialize(sim::Serializer &s)
{
    s.section("kpted");
    KThread::serialize(s);
    s.check(guided, "kpted guided-scan flag");
}

Kpted::Kpted(os::Kernel &kernel, HwdpOsSupport &support, unsigned core,
             Tick period, bool guided_scan)
    : os::KThread("kpted", core, kernel.scheduler(), kernel.eventQueue(),
                  period),
      kernel(kernel), support(support), guided(guided_scan),
      statSynced(stats(), "pages_synced",
                 "hardware-handled PTEs synced into OS metadata"),
      statVisited(stats(), "entries_visited", "page-table entries scanned"),
      statIpis("remote_shootdown_ipis",
               "shootdown IPIs sent to other sockets")
{
}

void
Kpted::setCrossSocketIpis(unsigned n)
{
    crossSocketIpis = n;
    if (n > 0)
        stats().add(statIpis);
}

std::pair<std::uint64_t, std::uint64_t>
Kpted::scan(os::AddressSpace &as, VAddr lo, VAddr hi)
{
    std::uint64_t visited = 0;
    auto fn = [this, &as](VAddr va, os::EntryRef ref) {
        kernel.syncHardwareHandledPte(as, va, ref);
    };
    std::uint64_t synced =
        guided ? as.pageTable().scanUnsynced(lo, hi, fn, &visited)
               : as.pageTable().scanUnsyncedFull(lo, hi, fn, &visited);
    statSynced += synced;
    statVisited += visited;
    return {synced, visited};
}

void
Kpted::batch(std::function<void()> done)
{
    std::uint64_t synced = 0;
    std::uint64_t visited = 0;
    for (const FastVma &fv : support.fastVmas()) {
        auto [s, v] = scan(*fv.as, fv.vma->start, fv.vma->end);
        synced += s;
        visited += v;
    }

    unsigned phys = sched.physCoreOf(core());
    Tick dur = sched.kernelExec().runBatch(
        phys, os::phases::kptedScanEntry, visited);
    dur += sched.kernelExec().runBatch(phys, os::phases::kptedPerPage,
                                       synced);
    // One batched shootdown round covers every PTE this pass rewrote.
    if (crossSocketIpis > 0 && synced > 0) {
        dur += sched.kernelExec().runBatch(
            phys, os::phases::shootdownIpi, crossSocketIpis);
        statIpis += crossSocketIpis;
    }
    eq.postIn(dur, std::move(done), "kpted.batch");
}

void
Kpted::syncRange(os::AddressSpace &as, VAddr lo, VAddr hi,
                 unsigned caller_core, std::function<void()> done)
{
    auto [synced, visited] = scan(as, lo, hi);
    unsigned phys = sched.physCoreOf(caller_core);
    Tick dur = sched.kernelExec().runBatch(
        phys, os::phases::kptedScanEntry, visited);
    dur += sched.kernelExec().runBatch(phys, os::phases::kptedPerPage,
                                       synced);
    if (crossSocketIpis > 0 && synced > 0) {
        dur += sched.kernelExec().runBatch(
            phys, os::phases::shootdownIpi, crossSocketIpis);
        statIpis += crossSocketIpis;
    }
    eq.postIn(dur, std::move(done), "kpted.syncRange");
}

} // namespace hwdp::core
