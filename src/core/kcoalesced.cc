#include "core/kcoalesced.hh"

#include <algorithm>

#include "os/kernel.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
Kcoalesced::serialize(sim::Serializer &s)
{
    s.section("kcoalesced");
    KThread::serialize(s);
    s.io(cursorAs);
    s.io(cursorVa);
}

Kcoalesced::Kcoalesced(os::Kernel &kernel, unsigned core)
    : os::KThread("kcoalesced", core, kernel.scheduler(),
                  kernel.eventQueue(), wakePeriod),
      kernel(kernel),
      statWindows(stats(), "windows_scanned", "2 MB windows examined"),
      statPromoted(stats(), "windows_promoted",
                   "windows promoted to 2 MB pages"),
      statAborts(stats(), "promotions_aborted",
                 "eligible windows whose promotion was aborted"),
      statIpis("remote_shootdown_ipis",
               "shootdown IPIs sent to other sockets")
{
}

void
Kcoalesced::setCrossSocketIpis(unsigned n)
{
    crossSocketIpis = n;
    if (n > 0)
        stats().add(statIpis);
}

void
Kcoalesced::batch(std::function<void()> done)
{
    constexpr VAddr span = pmdLeafPages << pageShift;
    auto &spaces = kernel.addressSpaces();
    std::uint64_t visited = 0;
    std::uint64_t promoted = 0;

    // Resume the cursor; a full wrap of every space (plus slack for
    // spaces created mid-pass) without finding a window ends the
    // batch early.
    std::uint64_t idle = 0;
    while (visited < batchWindows && !spaces.empty() &&
           idle <= spaces.size()) {
        if (cursorAs >= spaces.size()) {
            cursorAs = 0;
            cursorVa = 0;
        }
        os::AddressSpace &as = *spaces[cursorAs];
        // Next aligned window at or above the cursor in this space.
        // Address spaces hold a handful of VMAs, so the linear min
        // scan per window is cheap on the host.
        os::Vma *vma = nullptr;
        VAddr win = 0;
        for (const auto &v : as.vmas()) {
            VAddr w = std::max(v->start, cursorVa);
            w = (w + span - 1) & ~(span - 1);
            if (w + span <= v->end && (!vma || w < win)) {
                vma = v.get();
                win = w;
            }
        }
        if (!vma) {
            ++cursorAs;
            cursorVa = 0;
            ++idle;
            continue;
        }
        idle = 0;
        ++visited;
        cursorVa = win + span;
        if (kernel.hugeWindowPromotable(as, *vma, win)) {
            if (abortHook && abortHook())
                ++statAborts;
            else if (kernel.promoteWindowHuge(as, *vma, win))
                ++promoted;
        }
    }
    statWindows += visited;
    statPromoted += promoted;

    unsigned phys = sched.physCoreOf(core());
    Tick dur = sched.kernelExec().runBatch(
        phys, os::phases::coalesceScan, visited);
    dur += sched.kernelExec().runBatch(phys, os::phases::coalescePromote,
                                       promoted);
    // One batched shootdown round covers every window promoted here.
    if (crossSocketIpis > 0 && promoted > 0) {
        dur += sched.kernelExec().runBatch(
            phys, os::phases::shootdownIpi, crossSocketIpis);
        statIpis += crossSocketIpis;
    }
    eq.postIn(dur, std::move(done), "kcoalesced.batch");
}

} // namespace hwdp::core
