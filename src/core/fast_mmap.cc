#include "core/fast_mmap.hh"

#include <algorithm>

#include "core/kpoold.hh"
#include "core/kpted.hh"
#include "core/smu.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
HwdpOsSupport::serialize(sim::Serializer &s)
{
    s.section("hwdpossupport");
    std::uint64_t n = vmas.size();
    s.check(n, "fast-vma count");
    for (auto &fv : vmas) {
        std::uint32_t asid = fv.as->id();
        s.check(asid, "fast-vma address space");
        s.check(fv.vma->start, "fast-vma start");
        s.check(fv.vma->end, "fast-vma end");
    }
}

HwdpOsSupport::HwdpOsSupport(os::Kernel &kernel) : k(kernel)
{
    // The unmap hook must exist even before any accelerator component
    // attaches: the registry lives here, not in the SMU or kpted.
    installHooks();
}

void
HwdpOsSupport::registerFastVma(os::AddressSpace &as, os::Vma *vma)
{
    vmas.push_back(FastVma{&as, vma});
}

void
HwdpOsSupport::unregisterFastVma(os::Vma *vma)
{
    vmas.erase(std::remove_if(vmas.begin(), vmas.end(),
                              [vma](const FastVma &fv) {
                                  return fv.vma == vma;
                              }),
               vmas.end());
}

void
HwdpOsSupport::attachEngine(MissEngine *e)
{
    engines.push_back(e);
    installHooks();
}

void
HwdpOsSupport::attachSmu(Smu *s)
{
    s->setQueueEmptyCallback([this] {
        // Wake kpoold early so the queue refills before the next miss
        // where possible.
        if (kpoold)
            kpoold->kick();
    });
    attachEngine(&s->missEngine());
}

void
HwdpOsSupport::attachKpted(Kpted *kt)
{
    kpted = kt;
    installHooks();
}

void
HwdpOsSupport::attachKpoold(Kpoold *kp)
{
    kpoold = kp;
    k.setRefillHook([this](unsigned core) {
        if (kpoold)
            kpoold->refillOverlapped(core);
    });
    installHooks();
}

void
HwdpOsSupport::installHooks()
{
    os::Kernel::HwdpHooks hooks;
    if (kpted) {
        Kpted *kt = kpted;
        hooks.syncMetadata = [kt](os::AddressSpace &as, VAddr lo,
                                  VAddr hi, unsigned core,
                                  std::function<void()> done) {
            kt->syncRange(as, lo, hi, core, std::move(done));
        };
    }
    if (!engines.empty()) {
        // An unmap barrier must cover every socket's engine — a miss
        // in flight on any of them may still write the PTEs being torn
        // down. Chained in socket order so the completion sequence is
        // deterministic.
        std::vector<MissEngine *> list = engines;
        hooks.smuBarrier = [list](std::function<void()> done) {
            barrierChain(list, 0, std::move(done));
        };
    }
    // munmap destroys the Vma; the registry must not keep scanning it.
    hooks.vmaUnmapped = [this](os::Vma *vma) { unregisterFastVma(vma); };
    k.setHwdpHooks(std::move(hooks));
}

void
HwdpOsSupport::barrierChain(std::vector<MissEngine *> list, std::size_t i,
                            std::function<void()> done)
{
    if (i == list.size()) {
        done();
        return;
    }
    MissEngine *e = list[i];
    e->barrier([list = std::move(list), i,
                done = std::move(done)]() mutable {
        barrierChain(std::move(list), i + 1, std::move(done));
    });
}

} // namespace hwdp::core
