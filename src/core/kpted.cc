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

Kpted::Kpted(os::Kernel &kernel, unsigned core, Tick period,
             bool guided_scan)
    : os::KThread("kpted", core, kernel.scheduler(), kernel.eventQueue(),
                  period),
      kernel(kernel), guided(guided_scan),
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

Tick
Kpted::charge(unsigned on_core, std::uint64_t synced, std::uint64_t visited)
{
    unsigned phys = sched.physCoreOf(on_core);
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
    return dur;
}

void
Kpted::batch(std::function<void()> done)
{
    // The fast-mmap flag on the VMA is the one record of which areas
    // kpted owns: an unmapped area has left its address space and a
    // fork-reverted one has lost the flag, so neither is scanned.
    std::uint64_t synced = 0;
    std::uint64_t visited = 0;
    for (const auto &as : kernel.addressSpaces()) {
        for (const auto &vma : as->vmas()) {
            if (!vma->fastMmap)
                continue;
            auto [s, v] = scan(*as, vma->start, vma->end);
            synced += s;
            visited += v;
        }
    }
    eq.postIn(charge(core(), synced, visited), std::move(done),
              "kpted.batch");
}

void
Kpted::syncRange(os::AddressSpace &as, VAddr lo, VAddr hi,
                 unsigned caller_core, std::function<void()> done)
{
    auto [synced, visited] = scan(as, lo, hi);
    eq.postIn(charge(caller_core, synced, visited), std::move(done),
              "kpted.syncRange");
}

} // namespace hwdp::core
