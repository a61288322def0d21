/**
 * @file
 * Demand-paging event-path microbench: host cost of the fault fast
 * path (BENCH_paging_path.json).
 *
 * Fault storm: FIO random reads over a dataset 32x memory on an hwdp
 * machine, run to completion, so nearly every op walks the full
 * walker-miss -> SMU -> PMSHR -> NVMe chain. Run with the fast path
 * on and off; the stats dumps must match byte for byte before any
 * timing is quoted, and the CPU-seconds ratio is the fast path's win.
 * Exits 1 when the dumps differ.
 *
 * Timing is the BENCH_*.json protocol (host_timing.hh): median of N
 * repeats, steal-immune process CPU seconds from getrusage beside the
 * wall clock. The paging-path counter table prints next to the
 * numbers so the event-elision the timing claims is visible.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_common.hh"
#include "bench/host_timing.hh"
#include "testing/machine_differ.hh"

using namespace hwdp;

namespace {

struct Out
{
    std::uint64_t stateHash = 0;
    Tick finalTick = 0;
    std::uint64_t hwHandled = 0;
    std::string stats;
    std::string pagingTable;
};

Out
runFaultStorm(bool fast)
{
    auto cfg = bench::paperConfig(system::PagingMode::hwdp);
    cfg.memFrames = 32 * 1024;
    cfg.faultFastPath = fast;
    system::System sys(cfg);
    auto mf = sys.mapDataset("storm.dat", 32 * cfg.memFrames);
    for (unsigned t = 0; t < 4; ++t) {
        auto *wl =
            sys.makeWorkload<workloads::FioWorkload>(mf.vma, 6000);
        sys.addThread(*wl, t, *mf.as);
    }
    sys.runUntilThreadsDone(seconds(120.0));
    testing::quiesce(sys);

    Out o;
    auto snap = testing::snapshot(sys, "micro_paging");
    o.stateHash = snap.stateHash;
    o.finalTick = sys.now();
    for (auto &tc : sys.threads())
        o.hwHandled += tc->hwHandledOps();
    std::ostringstream os;
    testing::dumpMachineStats(sys, os);
    o.stats = os.str();
    o.pagingTable = metrics::pagingPathTable(sys).toString();
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned repeats = 3;
    if (argc > 1)
        repeats = static_cast<unsigned>(std::atoi(argv[1]));
    if (repeats == 0)
        repeats = 1;

    unsigned host = std::thread::hardware_concurrency();
    metrics::banner("Paging-path microbench: fault fast path",
                    "stats must be byte-identical before timing counts");
    std::printf("host hardware concurrency: %u, repeats: %u\n\n", host,
                repeats);

    Out fastOut, legacyOut;
    bench::TimedRun fastT = bench::medianOfRuns(
        repeats, [&] { fastOut = runFaultStorm(true); });
    bench::TimedRun legacyT = bench::medianOfRuns(
        repeats, [&] { legacyOut = runFaultStorm(false); });

    bool stats_identical = fastOut.stats == legacyOut.stats &&
                           fastOut.stateHash == legacyOut.stateHash &&
                           fastOut.finalTick == legacyOut.finalTick;
    double speedup =
        fastT.cpuSec > 0 ? legacyT.cpuSec / fastT.cpuSec : 0.0;

    metrics::Table st({"fault storm", "cpu s (median)",
                       "wall s (median)", "hw faults"});
    st.addRow({"fast path on", metrics::Table::num(fastT.cpuSec, 3),
               metrics::Table::num(fastT.wallSec, 3),
               std::to_string(fastOut.hwHandled)});
    st.addRow({"event-per-hop", metrics::Table::num(legacyT.cpuSec, 3),
               metrics::Table::num(legacyT.wallSec, 3),
               std::to_string(legacyOut.hwHandled)});
    st.print();
    std::printf("\ncpu speedup: %.2fx   stats byte-identical: %s\n\n",
                speedup, stats_identical ? "yes" : "NO");
    std::fputs(fastOut.pagingTable.c_str(), stdout);

    std::printf("\n{\"bench\": \"micro_paging\", \"host_cores\": %u, "
                "\"repeats\": %u, \"storm_fast_cpu_s\": %.3f, "
                "\"storm_legacy_cpu_s\": %.3f, \"fast_speedup\": %.2f, "
                "\"stats_identical\": %s}\n",
                host, repeats, fastT.cpuSec, legacyT.cpuSec, speedup,
                stats_identical ? "true" : "false");
    return stats_identical ? 0 : 1;
}
