#include "testing/machine_differ.hh"

#include <sstream>

#include "os/fault_handler.hh"
#include "os/file_system.hh"
#include "os/kernel.hh"
#include "os/page_table.hh"
#include "os/pte.hh"
#include "system/system.hh"

namespace hwdp::testing {

void
quiesce(system::System &sys)
{
    sys.stopKthreads();
    sys.eventQueue().run();

    // Untimed kpted-equivalent pass. Deliberately the *guided* scan: a
    // faulty component that forgets to mark the PMD/PUD LBA bits will
    // leave its pages unsynced here, and the differ flags them.
    os::Kernel &kern = sys.kernel();
    for (const auto &as : kern.addressSpaces()) {
        for (const auto &vma : as->vmas()) {
            as->pageTable().scanUnsynced(
                vma->start, vma->end,
                [&](VAddr va, os::EntryRef ref) {
                    kern.syncHardwareHandledPte(*as, va, ref);
                });
        }
    }
    // Syncing may enqueue writeback or shootdown events; drain again.
    sys.eventQueue().run();
}

MachineState
snapshot(system::System &sys, const std::string &label)
{
    return captureLogicalState(sys, label);
}

DiffResult
diff(const MachineState &a, const MachineState &b, const DiffOptions &opt)
{
    DiffResult r;
    std::ostringstream os;

    auto divergence = [&](const std::string &line) {
        ++r.divergences;
        if (r.divergences <= opt.maxReports)
            os << "  " << line << "\n";
    };

    os << "diff " << a.label << " vs " << b.label << ":\n";

    if (a.spaces.size() != b.spaces.size()) {
        divergence("address space count: " +
                   std::to_string(a.spaces.size()) + " vs " +
                   std::to_string(b.spaces.size()));
    } else {
        for (std::size_t s = 0; s < a.spaces.size(); ++s) {
            const AsState &as_a = a.spaces[s];
            const AsState &as_b = b.spaces[s];
            if (as_a.vmas.size() != as_b.vmas.size()) {
                divergence("as " + std::to_string(as_a.asid) +
                           ": vma count " +
                           std::to_string(as_a.vmas.size()) + " vs " +
                           std::to_string(as_b.vmas.size()));
                continue;
            }
            for (std::size_t v = 0; v < as_a.vmas.size(); ++v) {
                const VmaState &vm_a = as_a.vmas[v];
                const VmaState &vm_b = as_b.vmas[v];
                if (vm_a.pages.size() != vm_b.pages.size()) {
                    divergence("as " + std::to_string(as_a.asid) +
                               " vma " + std::to_string(v) +
                               ": page count " +
                               std::to_string(vm_a.pages.size()) +
                               " vs " +
                               std::to_string(vm_b.pages.size()));
                    continue;
                }
                for (std::size_t p = 0; p < vm_a.pages.size(); ++p) {
                    if (opt.userDataOnly) {
                        if (vm_a.pages[p].dirty != vm_b.pages[p].dirty) {
                            std::ostringstream line;
                            line << "as " << as_a.asid << " vma " << v
                                 << " page " << p << " (va 0x"
                                 << std::hex
                                 << (vm_a.start + (p << pageShift))
                                 << std::dec << "): dirty "
                                 << vm_a.pages[p].dirty << " vs "
                                 << vm_b.pages[p].dirty;
                            divergence(line.str());
                        }
                        continue;
                    }
                    if (vm_a.pages[p] == vm_b.pages[p])
                        continue;
                    std::ostringstream line;
                    line << "as " << as_a.asid << " vma " << v
                         << " page " << p << " (va 0x" << std::hex
                         << (vm_a.start + (p << pageShift))
                         << std::dec << "): "
                         << describePageState(vm_a.pages[p]) << "  |  "
                         << describePageState(vm_b.pages[p]);
                    divergence(line.str());
                }
            }
        }
    }

    if (a.totalAppOps != b.totalAppOps)
        divergence("total app ops: " + std::to_string(a.totalAppOps) +
                   " vs " + std::to_string(b.totalAppOps));
    if (a.oomKills != b.oomKills)
        divergence("oom kills: " + std::to_string(a.oomKills) + " vs " +
                   std::to_string(b.oomKills));
    if (opt.compareFaultTotals && a.faultsServiced != b.faultsServiced)
        divergence("faults serviced: " +
                   std::to_string(a.faultsServiced) + " vs " +
                   std::to_string(b.faultsServiced));

    if (r.divergences > opt.maxReports)
        os << "  ... " << (r.divergences - opt.maxReports)
           << " further divergences suppressed\n";

    r.equivalent = r.divergences == 0;
    r.report = r.equivalent ? std::string() : os.str();
    return r;
}

void
dumpMachineStats(system::System &sys, std::ostream &os)
{
    for (const sim::StatGroup *g :
         sys.eventQueue().statRegistry().groups())
        g->dump(os);
}

} // namespace hwdp::testing
