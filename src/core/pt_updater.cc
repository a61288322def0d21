#include "core/pt_updater.hh"

#include "sim/logging.hh"

namespace hwdp::core {

void
PageTableUpdater::update(const cpu::PageMissRequest &req, Pfn pfn)
{
    using namespace os::pte;

    if (!req.refs.pte.valid() || !req.refs.pmd.valid() ||
        !req.refs.pud.valid())
        panic("pt updater: request without full entry references");

    Entry old = req.refs.pte.value();
    if (isPresent(old))
        panic("pt updater: PTE already present");

    // PFN replaces the LBA field; protection bits survive; the LBA bit
    // stays set so the OS knows metadata synchronisation is pending.
    req.refs.pte.write(makePresent(pfn, protectionOf(old), true));

    // Mark the two upper levels for kpted's guided scan.
    if (!skipUpperMark) {
        req.refs.pmd.write(setLbaBit(req.refs.pmd.value()));
        req.refs.pud.write(setLbaBit(req.refs.pud.value()));
    }
}

} // namespace hwdp::core
