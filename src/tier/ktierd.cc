#include "tier/ktierd.hh"

#include <algorithm>

#include "os/block_layer.hh"
#include "sim/serialize.hh"

namespace hwdp::tier {

Ktierd::Ktierd(os::Kernel &kernel, std::vector<CxlBuffer *> tiers,
               unsigned core)
    : os::KThread("ktierd", core, kernel.scheduler(),
                  kernel.eventQueue(), wakePeriod),
      kernel(kernel), tiers(std::move(tiers)),
      statScanned(stats(), "frames_scanned", "tier frames examined"),
      statWritebacks(stats(), "writebacks_submitted",
                     "dirty tier frames written back")
{
}

std::uint64_t
Ktierd::evictFrom(CxlBuffer &t, std::uint64_t budget,
                  std::uint64_t &writebacks)
{
    std::uint64_t examined = 0;
    while (examined < budget && t.aboveLow()) {
        CxlBuffer::Victim v = t.pickVictim();
        ++examined;
        if (!v.valid)
            break; // everything referenced or under writeback
        if (!v.dirty) {
            t.dropClean(v.dev, v.lba);
            continue;
        }
        t.beginWriteback(v.dev, v.lba);
        ++writebacks;
        ++statWritebacks;
        auto submit = [this, &t, dev = v.dev, lba = v.lba] {
            kernel.blockLayer().submit(
                core(), dev, lba, true,
                os::BlockLayer::IoClass::tierWriteback,
                [&t, dev, lba] { t.finishWriteback(dev, lba); });
        };
        Tick stall = stallHook ? stallHook() : 0;
        if (stall > 0)
            eq.postIn(stall, submit, "ktierd.stalledwb");
        else
            submit();
    }
    return examined;
}

void
Ktierd::batch(std::function<void()> done)
{
    std::uint64_t budget = maxBatch;
    std::uint64_t writebacks = 0;
    std::uint64_t examined = 0;
    for (CxlBuffer *t : tiers) {
        if (budget == 0)
            break;
        if (!t->aboveHigh())
            continue; // hysteresis: only engage above the high mark
        std::uint64_t e = evictFrom(*t, budget, writebacks);
        examined += e;
        budget -= std::min(budget, e);
    }
    statScanned += examined;
    unsigned phys = sched.physCoreOf(core());
    Tick dur = sched.kernelExec().runBatch(
        phys, os::phases::reclaimScanPage, examined);
    dur += sched.kernelExec().runBatch(
        phys, os::phases::writebackSubmit, writebacks);
    eq.postIn(dur, std::move(done), "ktierd.batch");
}

void
Ktierd::serialize(sim::Serializer &s)
{
    s.section("ktierd");
    KThread::serialize(s);
    s.check(maxBatch, "ktierd batch size");
}

} // namespace hwdp::tier
