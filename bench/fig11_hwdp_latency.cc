/**
 * @file
 * Figure 11: (a) single page miss, OSDP vs HWDP, split into
 * before-device-I/O and after-device-I/O portions; (b) the HWDP
 * hardware timeline with per-step costs.
 *
 * Paper: HWDP cuts the before-device portion by 2.38 us and the
 * after-device portion by 6.16 us; the hardware steps are 2 register
 * writes (1+1 cycles), a 5-cycle CAM lookup, a 77.16 ns NVMe command
 * memory write, a 1.60 ns PCIe doorbell write, a 97-cycle
 * PTE/PMD/PUD update, 2 cycles of completion handling and 2 cycles to
 * notify the MMU.
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
    auto cyc_us = [](Cycles c) { return toMicroseconds(c * cyclePeriod); };
    const core::SmuCosts &hw = core::smuCosts;
    const Tick device = ssd::profileByName("zssd").unloadedRead4k();

    metrics::banner("Figure 11(a): OSDP vs HWDP single-miss portions",
                    "paper: before-device -2.38 us, after-device "
                    "-6.16 us");

    double osdp_before = cyc_us(phases::exceptionEntry.cycles +
                                phases::vmaLookup.cycles +
                                phases::pageAlloc.cycles +
                                phases::ioSubmit.cycles);
    double osdp_after = cyc_us(phases::irqDeliver.cycles +
                               phases::ioComplete.cycles +
                               phases::wakeupSched.cycles +
                               phases::contextSwitch.cycles +
                               phases::metadataUpdate.cycles +
                               phases::pteUpdateReturn.cycles);

    double hw_before =
        cyc_us(hw.requestRegWrites + hw.camLookup + hw.pfnWrite) +
        toMicroseconds(hw.nvme.cmdWrite + hw.nvme.doorbell);
    double hw_after = cyc_us(hw.ptUpdateCycles +
                             hw.nvme.completionCycles + hw.notifyCycles);

    Table a({"portion", "OSDP us", "HWDP us", "delta us",
             "paper delta"});
    a.addRow({"before device I/O", Table::num(osdp_before),
              Table::num(hw_before, 3),
              Table::num(osdp_before - hw_before), "-2.38 us"});
    a.addRow({"after device I/O", Table::num(osdp_after),
              Table::num(hw_after, 3),
              Table::num(osdp_after - hw_after), "-6.16 us"});
    a.print();

    metrics::banner("Figure 11(b): HWDP single-miss timeline");
    Table b({"step", "cost", "ns"});
    auto cycles_row = [&](const char *step, Cycles c,
                          const char *note = "") {
        b.addRow({step,
                  std::to_string(c) + (c == 1 ? " cycle" : " cycles") +
                      note,
                  Table::num(cyc_us(c) * 1000.0)});
    };
    auto time_row = [&](const char *step, Tick t) {
        b.addRow({step, Table::num(toNanoseconds(t)) + " ns",
                  Table::num(toNanoseconds(t))});
    };
    cycles_row("MMU -> SMU register writes", hw.requestRegWrites);
    cycles_row("PMSHR CAM lookup", hw.camLookup);
    b.addRow({"free page fetch", "prefetched (hidden)", "0.00"});
    cycles_row("PFN write to PMSHR", hw.pfnWrite);
    time_row("NVMe command memory write", hw.nvme.cmdWrite);
    time_row("SQ doorbell (PCIe write)", hw.nvme.doorbell);
    b.addRow({"device I/O (Z-SSD)",
              Table::num(toMicroseconds(device), 1) + " us",
              Table::num(toNanoseconds(device))});
    cycles_row("PTE/PMD/PUD read+update", hw.ptUpdateCycles,
               " (3 LLC r+w)");
    cycles_row("completion unit", hw.nvme.completionCycles);
    cycles_row("notify MMU / resume walk", hw.notifyCycles);
    b.print();

    // Measured cross-check: mean hardware miss latency minus device
    // time should equal the sub-200ns hardware budget above.
    auto cfg = bench::paperConfig(system::PagingMode::hwdp);
    system::System sys(cfg);
    auto mf = sys.mapDataset("fio.dat", 32 * bench::defaultMemFrames);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 8000);
    sys.addThread(*wl, 0, *mf.as);
    sys.runUntilThreadsDone(seconds(60.0));

    double dev_us = toMicroseconds(device);
    double miss_us = sys.smu()->missLatencyUs().mean();
    std::printf("\nmeasured HWDP miss latency : %.2f us (device %.2f us "
                "-> hardware adds ~%.0f ns)\n",
                miss_us, dev_us, (miss_us - dev_us) * 1000.0);
    return 0;
}
