/**
 * @file
 * Figure 3: time breakdown of a single OSDP page fault.
 *
 * Prints the calibrated kernel-phase decomposition as fractions of
 * the Z-SSD device time next to the fractions the paper reports
 * (exception & PT walk 2.45%, I/O submission 9.85%, interrupt
 * delivery 2.5%, context switch 9.85%, I/O completion 20.6%, total
 * overhead 76.3% of device time), then cross-checks against a
 * measured single-fault latency from a one-thread FIO run.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "os/kernel_phases.hh"
#include "ssd/ssd_profile.hh"

using namespace hwdp;
using metrics::Table;
using namespace hwdp::os;

int
main()
{
    metrics::banner("Figure 3: single OSDP page fault breakdown",
                    "fractions of the 10.9 us Z-SSD device time");

    auto prof = ssd::profileByName("zssd");
    double dev_us = toMicroseconds(prof.unloadedRead4k());

    struct Row
    {
        const KernelPhase *phase;
        const char *paper;
    };
    // Paper fractions where Figure 3 labels them; '-' where the figure
    // aggregates them into the fault-handler remainder.
    Row rows[] = {
        {&phases::exceptionEntry, "2.45% (incl. walk)"},
        {&phases::vmaLookup, "-"},
        {&phases::pageAlloc, "-"},
        {&phases::ioSubmit, "9.85%"},
        {&phases::contextSwitch, "9.85% (switch out)"},
        {&phases::irqDeliver, "2.5%"},
        {&phases::ioComplete, "20.6%"},
        {&phases::wakeupSched, "-"},
        {&phases::contextSwitch, "(switch in)"},
        {&phases::metadataUpdate, "-"},
        {&phases::pteUpdateReturn, "-"},
    };

    Table t({"phase", "us", "% of device time", "paper"});
    double total_us = 0;
    int i = 0;
    for (const Row &r : rows) {
        double us = toMicroseconds(r.phase->cycles * cyclePeriod);
        // The switch-out (row index 4) overlaps the device I/O and is
        // off the fault's critical path; everything else adds latency.
        bool overlapped = i == 4;
        if (!overlapped)
            total_us += us;
        t.addRow({overlapped
                      ? std::string(r.phase->name) + " (overlaps I/O)"
                      : std::string(r.phase->name),
                  Table::num(us), Table::pct(us / dev_us), r.paper});
        ++i;
    }
    t.addRow({"device I/O", Table::num(dev_us), "100%", "100%"});
    t.addRow({"TOTAL critical-path kernel overhead", Table::num(total_us),
              Table::pct(total_us / dev_us), "76.3%"});
    t.print();

    // Cross-check with a measured run: one FIO thread, cold reads.
    auto cfg = bench::paperConfig(system::PagingMode::osdp);
    system::System sys(cfg);
    auto mf = sys.mapDataset("fio.dat", 32 * bench::defaultMemFrames);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 8000);
    sys.addThread(*wl, 0, *mf.as);
    sys.runUntilThreadsDone(seconds(60.0));

    double fault_us = sys.kernel().faultLatencyUs().mean();
    std::printf("\nmeasured single-fault latency : %.2f us "
                "(device %.2f us + kernel %.2f us)\n",
                fault_us, dev_us, fault_us - dev_us);
    std::printf("measured kernel overhead      : %.1f%% of device time "
                "(paper: 76.3%%)\n",
                (fault_us - dev_us) / dev_us * 100.0);
    return 0;
}
