#include "bench/suite/round.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "bench/bench_common.hh"
#include "bench/host_timing.hh"
#include "bench/suite/probe.hh"
#include "os/kernel_phases.hh"
#include "sim/logging.hh"
#include "system/checkpoint.hh"
#include "system/system.hh"
#include "testing/invariants.hh"
#include "testing/logical_state.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/open_loop.hh"
#include "workloads/ycsb.hh"

namespace hwdp::suite {

const std::vector<std::string> workloadNames = {
    "fio_hwdp", "fio_osdp", "ycsb_a", "serve_numa", "tier_randrw"};

namespace {

using system::PagingMode;
using system::System;

// Op counts per round. Each is sized so one round's measured phase is
// about half a second of host CPU on a 2 GHz Xeon: short rounds give a
// run many of them, and a median over many rounds resists the bursts
// of co-tenant interference a shared host sees. serveRequests also
// keeps 10 samples beyond the p99.9 serving percentile.
constexpr unsigned fioThreads = 4;
constexpr std::uint64_t fioHwdpOps = 12'500;   // per thread
constexpr std::uint64_t fioOsdpOps = 4'000;    // per thread
constexpr unsigned ycsbThreads = 4;
constexpr std::uint64_t ycsbWarmOps = 2'000;   // per thread
constexpr std::uint64_t ycsbMeasOps = 2'500;   // per thread
constexpr unsigned serveServers = 12;
constexpr double serveOfferedOpsPerSec = 100e3;
constexpr std::uint64_t serveRequests = 12'000;
constexpr std::uint64_t tierMeasOps = 25'000;
constexpr std::uint64_t tierDatasetPages = 32 * 1024;

/** Absolute simulated-time cap for every run call. */
constexpr Tick tickLimit = seconds(600.0);

/** Events per traced slice of the measured phase. */
constexpr std::uint64_t sliceEvents = std::uint64_t(1) << 16;

/** A percentile needs this many samples beyond it to be reported. */
constexpr double minTailSamples = 10.0;

/** The value of a metric the round cannot measure (reported as null). */
constexpr double notMeasured = std::numeric_limits<double>::quiet_NaN();

using Counts = std::map<std::string, std::uint64_t>;

std::uint64_t
counterValue(const sim::StatGroup &g, const char *name)
{
    auto *c = dynamic_cast<const sim::Counter *>(g.find(name));
    if (!c)
        fatal("perf_suite: no counter '", name, "' in ", g.name());
    return c->value();
}

/**
 * Every public counter the suite reports, summed over cores, sockets
 * and devices. Thread-level counts cover the measured threads only
 * (index >= @p meas0); the rest are machine-wide.
 */
Counts
readCounts(System &sys, std::size_t meas0)
{
    Counts c;
    sim::EventQueue &eq = sys.eventQueue();
    c["sim.events"] = eq.processedCount();
    c["sim.pool_created"] = eq.poolStats().created;
    c["sim.pool_heap_fallbacks"] = eq.poolStats().heapFallbacks;
    c["ticks"] = sys.now();

    const auto &tcs = sys.threads();
    for (std::size_t i = meas0; i < tcs.size(); ++i) {
        const cpu::ThreadContext &tc = *tcs[i];
        c["app_ops"] += tc.appOps();
        c["faults"] += tc.faultedOps();
        c["cpu.mem_ops"] += tc.memOps();
        c["cpu.user_instr"] += tc.userInstructions();
        c["user_cycles"] += tc.userCycles();
    }

    for (unsigned i = 0; i < sys.config().nLogical; ++i) {
        cpu::Mmu &mmu = sys.core(i).mmu();
        c["cpu.tlb_lookups"] += mmu.tlb().lookups();
        c["tlb_misses"] += mmu.tlb().misses();
        c["cpu.tlb_latch_hits"] += mmu.tlb().latchHits();
        c["cpu.walks"] += mmu.walker().walks();
        c["pwc_hits"] += mmu.walker().pwcHits();
        c["pwc_misses"] += mmu.walker().pwcMisses();
        c["cpu.mmu_hw_misses"] += mmu.hwMisses();
        c["cpu.mmu_os_faults"] += mmu.osFaults();
        c["cpu.smu_rejections"] += mmu.smuRejections();
        c["cpu.stall_timeouts"] += mmu.stallTimeouts();
    }

    os::Kernel &k = sys.kernel();
    os::KernelExec &kx = k.kexec();
    c["mem.pollution_probes"] = kx.totalPollutionProbes();
    c["mem.pollution_bp_updates"] = kx.totalPollutionBranchUpdates();
    for (unsigned i = 0; i < unsigned(os::KernelCostCat::other); ++i) {
        auto cat = static_cast<os::KernelCostCat>(i);
        c[std::string("mem.probes.") + os::kernelCostCatName(cat)] =
            kx.pollutionProbes(cat);
    }

    c["os.major_faults"] = k.majorFaults();
    c["os.minor_faults"] = k.minorFaults();
    c["os.smu_fallback_faults"] = k.smuFallbackFaults();
    c["os.context_switches"] = k.scheduler().contextSwitches();
    c["os.kernel_work_items"] =
        counterValue(k.scheduler().stats(), "kernel_work_items");
    c["os.blk_reads"] = k.blockLayer().readsSubmitted();
    c["os.blk_writes"] = k.blockLayer().writesSubmitted();
    c["os.io_retries"] = k.blockLayer().ioRetries();
    c["os.wal_write_ios"] = counterValue(k.stats(), "wal_write_ios");
    c["os.reclaim_evicted"] = k.reclaimer().pagesEvicted();
    c["os.reclaim_written_back"] = k.reclaimer().pagesWrittenBack();
    c["os.direct_reclaims"] = k.reclaimer().directReclaims();
    c["page_cache_lookups"] = k.pageCache().lookups();
    c["page_cache_hits"] = k.pageCache().hits();
    c["os.oom_kills"] = k.oomKills();
    c["os.kernel_instr"] = kx.totalInstructions();

    for (unsigned s = 0; s < sys.numSockets(); ++s) {
        if (core::Smu *smu = sys.smuAt(s)) {
            c["core.smu_handled"] += smu->handled();
            c["core.smu_coalesced"] += smu->coalesced();
            c["core.smu_rejected_queue_empty"] += smu->rejectedQueueEmpty();
            c["core.smu_rejected_pmshr_full"] += smu->rejectedPmshrFull();
            c["smu_inline_misses"] += smu->inlineMisses();
            for (core::FreePageQueue *q : smu->freePageQueues()) {
                c["core.fpq_pops"] += q->pops();
                c["core.fpq_empty_pops"] += q->emptyPops();
            }
            const core::NvmeHostController &hc = smu->hostController();
            c["nvme.reads_issued"] += hc.readsIssued();
            c["nvme_inline_doorbells"] += hc.inlineDoorbells();
            c["nvme_event_doorbells"] += hc.eventDoorbells();
            c["nvme_inline_completions"] += hc.inlineCompletions();
            c["nvme_event_completions"] += hc.eventCompletions();
        }
        if (tier::CxlBuffer *t = sys.tierAt(s)) {
            c["tier.hits"] += t->hits();
            c["tier.misses"] += t->misses();
            c["tier.evictions"] += t->evictsClean() + t->evictsDirty();
            c["tier.writes_absorbed"] += t->writesAbsorbed();
            c["tier.load_errors"] += t->loadErrors();
        }
    }
    if (core::Kpted *kt = sys.kpted()) {
        c["core.kpted_entries_visited"] = kt->entriesVisited();
        c["core.kpted_pages_synced"] = kt->pagesSynced();
    }
    if (core::Kpoold *kp = sys.kpoold())
        c["core.kpoold_pages_donated"] = kp->pagesDonated();
    if (tier::Ktierd *kt = sys.ktierd())
        c["tier.ktierd_frames_scanned"] = kt->framesScanned();

    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        const ssd::SsdDevice &dev = sys.ssdAt(d);
        c["ssd.reads"] += dev.readsCompleted();
        c["ssd.writes"] += dev.writesCompleted();
        c["ssd.doorbell_rings"] += dev.doorbellRings();
        c["ssd.doorbells_coalesced"] += dev.doorbellsCoalesced();
        c["ssd_inline_fetches"] += dev.inlineFetches();
        c["ssd.error_completions"] += dev.errorsCompleted();
    }
    return c;
}

Counts
delta(const Counts &after, Counts before)
{
    Counts d;
    for (const auto &[name, v] : after)
        d[name] = v - before[name];
    return d;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Nearest-rank quantile over histogram buckets summed across threads,
 * with sim::Histogram::quantile's bucket-midpoint convention.
 */
double
pooledQuantile(const std::vector<std::uint64_t> &bins, double width,
               std::uint64_t n, double q)
{
    auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * double(n))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        seen += bins[i];
        if (seen >= target)
            return (double(i) + 0.5) * width;
    }
    return double(bins.size()) * width;
}

/** Percentile @p q of @p n samples, or notMeasured when too few. */
template <typename F>
double
tailQuantile(std::uint64_t n, double q, F &&quantile)
{
    return double(n) * (1.0 - q) >= minTailSamples ? quantile(q)
                                                   : notMeasured;
}

/** Resident set size now, in MiB (/proc/self/statm). */
double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Install the dataset's suffix resident, up to 80% of memory (the
 * bench_common runKv recipe): reclaim and kpoold start near their
 * steady state instead of spending the run filling an empty memory.
 */
void
preloadSuffix(System &sys, const System::MappedFile &mf,
              std::uint64_t pages)
{
    std::uint64_t n = std::min(pages, sys.config().memFrames * 8 / 10);
    for (std::uint64_t i = pages - n; i < pages; ++i) {
        Pfn pfn = sys.allocFrameInterleaved(i);
        if (pfn == mem::PhysMem::invalidPfn)
            break;
        sys.kernel().installPage(*mf.as, *mf.vma,
                                 mf.vma->start + i * pageSize, pfn, true);
    }
}

/** Keeps workload-side objects alive for the machine's lifetime. */
struct Holder : workloads::Workload
{
    std::unique_ptr<workloads::KvStore> store;
    std::unique_ptr<workloads::OpenLoopSource> source;
    workloads::Op next(sim::Rng &) override
    {
        return workloads::Op::makeDone();
    }
    const char *label() const override { return "suite_holder"; }
};

class Round
{
  public:
    explicit Round(const RoundOptions &o) : opt(o) {}

    RoundResult run();

  private:
    using Clock = std::chrono::steady_clock;

    const RoundOptions &opt;
    const Clock::time_point t0 = Clock::now();
    RoundResult res;
    std::vector<int> openSpans;

    std::unique_ptr<System> sys;
    System::MappedFile mf;
    /** Index of the first measured thread. */
    std::size_t meas0 = 0;
    /** The measured phase starts the machine (nothing ran before it). */
    bool fresh = true;

    double bootS = 0, warmS = 0, saveS = 0, restoreS = 0, verifyS = 0;
    double blobMb = 0;
    /**
     * The host probe's speed around the measured phase against its
     * reference speed. Every host CPU time the round reports is divided
     * by its HostProbe::sensitivity power (see probe.hh).
     */
    double slowdown = 1.0;

    double
    hostS(double cpu_s) const
    {
        return cpu_s / std::pow(slowdown, HostProbe::sensitivity);
    }

    std::uint64_t scaled(std::uint64_t n) const
    {
        return std::max<std::uint64_t>(1, n / opt.scaleDiv);
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count();
    }

    void
    beginSpan(std::string name)
    {
        int parent = openSpans.empty() ? -1 : openSpans.back();
        res.spans.push_back({std::move(name), parent, nowUs(), 0, {}});
        openSpans.push_back(int(res.spans.size()) - 1);
    }

    void
    endSpan(std::string args = {})
    {
        Span &s = res.spans.at(openSpans.back());
        s.endUs = nowUs();
        s.args = std::move(args);
        openSpans.pop_back();
    }

    /** Run @p fn inside a span; returns the process CPU it took. */
    template <typename F>
    double
    timed(const char *name, F &&fn)
    {
        beginSpan(name);
        double c0 = bench::processCpuSeconds();
        fn();
        double cpu = bench::processCpuSeconds() - c0;
        endSpan();
        return cpu;
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            res.failures.push_back(opt.workload + ": " + what);
    }

    void
    metric(const std::string &name, const char *unit, double v,
           std::string base_of = {}, std::uint64_t base_count = 0)
    {
        res.metrics.push_back(
            {name, unit, v, std::move(base_of), base_count});
    }

    double probeNsPerHop(HostProbe &probe);
    void bootFio(PagingMode mode);
    void bootYcsb();
    void bootServe();
    void bootTier();
    void warmUp();
    bool runSliced();
    void emitLayers(Counts &d, double measure_s, double measure_wall_s);
    void emitModel(Counts &d);
};

void
Round::bootFio(PagingMode mode)
{
    system::MachineConfig cfg = bench::paperConfig(mode);
    cfg.seed = opt.seed;
    std::uint64_t ops =
        scaled(mode == PagingMode::hwdp ? fioHwdpOps : fioOsdpOps);
    std::uint64_t dataset = 8 * bench::defaultMemFrames;
    bootS += timed("boot", [&] {
        timed("System", [&] { sys = std::make_unique<System>(cfg); });
        timed("mapDataset",
              [&] { mf = sys->mapDataset("fio.dat", dataset); });
        timed("preload", [&] { preloadSuffix(*sys, mf, dataset); });
        for (unsigned t = 0; t < fioThreads; ++t) {
            auto *wl =
                sys->makeWorkload<workloads::FioWorkload>(mf.vma, ops);
            sys->addThread(*wl, t, *mf.as);
        }
    });
    res.requestedOps = fioThreads * ops;
}

/**
 * YCSB-A through a checkpoint: warm one machine, save it, restore the
 * blob into a fresh boot of the same recipe and measure there.
 */
void
Round::bootYcsb()
{
    system::MachineConfig cfg = bench::paperConfig(PagingMode::hwdp);
    cfg.seed = opt.seed;
    const std::uint64_t dataset = bench::defaultDatasetPages;
    const std::uint64_t warm_ops = scaled(ycsbWarmOps);
    auto boot = [&](bool preload) {
        timed("System", [&] { sys = std::make_unique<System>(cfg); });
        timed("mapDataset",
              [&] { mf = sys->mapDataset("kv.dat", dataset); });
        if (preload)
            timed("preload", [&] { preloadSuffix(*sys, mf, dataset); });
        auto *holder = sys->makeWorkload<Holder>();
        holder->store = std::make_unique<workloads::KvStore>(
            mf.vma, sys->createFile("kv.wal", 64 * 1024), dataset);
        for (unsigned t = 0; t < ycsbThreads; ++t) {
            auto *wl = sys->makeWorkload<workloads::YcsbWorkload>(
                'A', *holder->store, warm_ops);
            sys->addThread(*wl, t, *mf.as);
        }
        return holder->store.get();
    };

    bootS += timed("boot", [&] { boot(true); });
    warmUp();

    std::vector<std::uint8_t> blob;
    system::CheckpointStats saved;
    saveS = timed("Checkpoint::save", [&] {
        blob = system::Checkpoint::save(*sys, &saved);
        sys.reset();
    });
    blobMb = double(blob.size()) / (1024.0 * 1024.0);

    workloads::KvStore *store = nullptr;
    bootS += timed("boot", [&] { store = boot(false); });
    restoreS = timed("Checkpoint::restore", [&] {
        system::Checkpoint::restore(*sys, blob);
    });
    std::uint64_t restored = 0;
    restoreS += timed("logicalStateHash", [&] {
        restored = testing::logicalStateHash(*sys);
    });
    check(restored == saved.logicalHash,
          "restored logical-state hash differs from the saved one");
    sys->resumeKthreads();
    fresh = false;

    std::uint64_t ops = scaled(ycsbMeasOps);
    meas0 = sys->threads().size();
    for (unsigned t = 0; t < ycsbThreads; ++t) {
        auto *wl =
            sys->makeWorkload<workloads::YcsbWorkload>('A', *store, ops);
        sys->addThread(*wl, t, *mf.as);
    }
    res.requestedOps = ycsbThreads * ops;
}

void
Round::bootServe()
{
    system::MachineConfig cfg = bench::paperConfig(PagingMode::hwdp);
    cfg.seed = opt.seed;
    cfg.sockets = 2;
    const std::uint64_t dataset = bench::defaultDatasetPages;
    workloads::OpenLoopParams olp;
    olp.offeredOpsPerSec = serveOfferedOpsPerSec;
    olp.totalRequests = scaled(serveRequests);
    olp.nServers = serveServers;
    bootS += timed("boot", [&] {
        timed("System", [&] { sys = std::make_unique<System>(cfg); });
        timed("mapDataset",
              [&] { mf = sys->mapDataset("kv.dat", dataset); });
        timed("preload", [&] { preloadSuffix(*sys, mf, dataset); });
        auto *holder = sys->makeWorkload<Holder>();
        holder->store = std::make_unique<workloads::KvStore>(
            mf.vma, sys->createFile("kv.wal", 64 * 1024), dataset);
        // The arrival schedule comes from its own rng, derived from
        // the seed the same way fig18 derives it.
        holder->source = std::make_unique<workloads::OpenLoopSource>(
            *holder->store, olp, sim::Rng(opt.seed ^ 0x6f70656e6c6f6fULL));
        for (unsigned t = 0; t < serveServers; ++t) {
            auto *wl = sys->makeWorkload<workloads::OpenLoopServer>(
                *holder->source, t);
            sys->addThread(*wl, t, *mf.as);
        }
    });
    res.requestedOps = olp.totalRequests;
}

/** The fig20 acceptance point: osdp behind a CXL tier, randrw 70/30. */
void
Round::bootTier()
{
    system::MachineConfig cfg = bench::paperConfig(PagingMode::osdp);
    cfg.seed = opt.seed;
    cfg.memFrames = 4 * 1024;
    cfg.smu.freeQueueCapacity = 1024;
    cfg.tierMode = system::TierMode::cxl;
    cfg.tierFrames = 48 * 1024;
    const std::uint64_t loop_instr = 64;
    bootS += timed("boot", [&] {
        timed("System", [&] { sys = std::make_unique<System>(cfg); });
        timed("mapDataset",
              [&] { mf = sys->mapDataset("fio.dat", tierDatasetPages); });
        // Sequential pass over every page: populates the tier.
        auto *warm = sys->makeWorkload<workloads::FioWorkload>(
            mf.vma, tierDatasetPages, loop_instr, true);
        sys->addThread(*warm, 0, *mf.as);
    });
    warmUp();
    fresh = false;

    std::uint64_t ops = scaled(tierMeasOps);
    meas0 = sys->threads().size();
    auto *wl = sys->makeWorkload<workloads::FioWorkload>(
        mf.vma, ops, loop_instr, false, 0.3);
    sys->addThread(*wl, 0, *mf.as);
    res.requestedOps = ops;
}

void
Round::warmUp()
{
    bool ok = false;
    warmS += timed("warm runUntilThreadsDone",
                   [&] { ok = sys->runUntilThreadsDone(tickLimit); });
    check(ok, "warm phase hit the tick limit");
}

/**
 * The traced measured phase: EventQueue::runWhile in slices of
 * sliceEvents events. Stopping on an event count never moves the
 * clock, so the simulated run is the untraced one.
 */
bool
Round::runSliced()
{
    if (fresh)
        sys->start();
    sim::EventQueue &eq = sys->eventQueue();
    const auto &tcs = sys->threads();
    auto all_done = [&] {
        return std::all_of(tcs.begin() + std::ptrdiff_t(meas0), tcs.end(),
                           [](const auto &tc) { return tc->done(); });
    };
    Counts prev = readCounts(*sys, meas0);
    for (unsigned n = 0; !all_done(); ++n) {
        std::uint64_t stop = eq.processedCount() + sliceEvents;
        beginSpan("slice");
        eq.runWhile(
            [&] { return eq.processedCount() < stop && !all_done(); },
            tickLimit);
        Counts cur = readCounts(*sys, meas0);
        Counts d = delta(cur, prev);
        std::ostringstream args;
        args << "\"slice\": " << n << ", \"events\": " << d["sim.events"]
             << ", \"app_ops\": " << d["app_ops"]
             << ", \"faults\": " << d["faults"]
             << ", \"major_faults\": " << d["os.major_faults"]
             << ", \"smu_handled\": " << d["core.smu_handled"]
             << ", \"pollution_probes\": " << d["mem.pollution_probes"]
             << ", \"tier_hits\": " << d["tier.hits"]
             << ", \"sim_ticks\": " << d["ticks"];
        endSpan(args.str());
        prev = std::move(cur);
        if (eq.processedCount() < stop && !all_done())
            return false; // drained or hit the tick limit
    }
    return true;
}

void
Round::emitLayers(Counts &d, double measure_s, double measure_wall_s)
{
    const double ops = double(res.completedOps);
    auto count = [&](const std::string &name) {
        metric(name, "count", double(d[name]));
    };

    metric("phase.boot_s", "s", hostS(bootS));
    metric("phase.warm_s", "s", hostS(warmS));
    metric("phase.measure_s", "s", hostS(measure_s));
    metric("phase.measure_wall_s", "s", measure_wall_s);
    metric("phase.verify_s", "s", hostS(verifyS));

    metric("system.checkpoint_save_s", "s", hostS(saveS));
    metric("system.checkpoint_restore_s", "s", hostS(restoreS));
    metric("system.checkpoint_blob_mb", "MB", blobMb);

    count("sim.events");
    metric("sim.events_per_op", "events/op", ratio(d["sim.events"], ops),
           "ops", res.completedOps);
    metric("sim.host_ns_per_event", "ns",
           ratio(hostS(measure_s) * 1e9, d["sim.events"]), "events",
           d["sim.events"]);
    count("sim.pool_created");
    count("sim.pool_heap_fallbacks");

    count("cpu.mem_ops");
    count("cpu.user_instr");
    count("cpu.tlb_lookups");
    metric("cpu.tlb_miss_ratio", "ratio",
           ratio(d["tlb_misses"], d["cpu.tlb_lookups"]), "tlb lookups",
           d["cpu.tlb_lookups"]);
    count("cpu.tlb_latch_hits");
    count("cpu.walks");
    std::uint64_t pwc = d["pwc_hits"] + d["pwc_misses"];
    metric("cpu.pwc_hit_ratio", "ratio", ratio(d["pwc_hits"], pwc),
           "pwc lookups", pwc);
    count("cpu.mmu_hw_misses");
    count("cpu.mmu_os_faults");
    count("cpu.smu_rejections");
    count("cpu.stall_timeouts");

    count("mem.pollution_probes");
    count("mem.pollution_bp_updates");
    metric("mem.probes_per_op", "probes/op",
           ratio(d["mem.pollution_probes"], ops), "ops", res.completedOps);
    for (unsigned i = 0; i < unsigned(os::KernelCostCat::other); ++i) {
        count(std::string("mem.probes.") +
              os::kernelCostCatName(static_cast<os::KernelCostCat>(i)));
    }

    for (const char *name :
         {"os.major_faults", "os.minor_faults", "os.smu_fallback_faults",
          "os.context_switches", "os.kernel_work_items", "os.blk_reads",
          "os.blk_writes", "os.io_retries", "os.wal_write_ios",
          "os.reclaim_evicted", "os.reclaim_written_back",
          "os.direct_reclaims"})
        count(name);
    metric("os.page_cache_hit_ratio", "ratio",
           ratio(d["page_cache_hits"], d["page_cache_lookups"]),
           "page cache lookups", d["page_cache_lookups"]);
    count("os.oom_kills");
    count("os.kernel_instr");

    for (const char *name :
         {"core.smu_handled", "core.smu_coalesced",
          "core.smu_rejected_queue_empty", "core.smu_rejected_pmshr_full"})
        count(name);
    metric("core.smu_inline_ratio", "ratio",
           ratio(d["smu_inline_misses"], d["cpu.mmu_hw_misses"]),
           "smu requests", d["cpu.mmu_hw_misses"]);
    for (const char *name :
         {"core.fpq_pops", "core.fpq_empty_pops",
          "core.kpted_entries_visited", "core.kpted_pages_synced",
          "core.kpoold_pages_donated"})
        count(name);

    count("nvme.reads_issued");
    std::uint64_t doorbells =
        d["nvme_inline_doorbells"] + d["nvme_event_doorbells"];
    metric("nvme.inline_doorbell_ratio", "ratio",
           ratio(d["nvme_inline_doorbells"], doorbells), "smu doorbells",
           doorbells);
    std::uint64_t completions =
        d["nvme_inline_completions"] + d["nvme_event_completions"];
    metric("nvme.inline_completion_ratio", "ratio",
           ratio(d["nvme_inline_completions"], completions),
           "smu completions", completions);
    for (const char *name : {"ssd.reads", "ssd.writes", "ssd.doorbell_rings",
                             "ssd.doorbells_coalesced"})
        count(name);
    metric("ssd.inline_fetch_ratio", "ratio",
           ratio(d["ssd_inline_fetches"], d["ssd.reads"]), "ssd reads",
           d["ssd.reads"]);
    count("ssd.error_completions");

    count("tier.hits");
    count("tier.misses");
    std::uint64_t probes = d["tier.hits"] + d["tier.misses"];
    metric("tier.hit_ratio", "ratio", ratio(d["tier.hits"], probes),
           "tier probes", probes);
    for (const char *name : {"tier.evictions", "tier.writes_absorbed",
                             "tier.load_errors", "tier.ktierd_frames_scanned"})
        count(name);
}

/**
 * Simulated outputs. They are exact and must not move on a change
 * that only touches host performance. Latency percentiles pool the
 * samples of every measured thread before ranking.
 */
void
Round::emitModel(Counts &d)
{
    const auto &tcs = sys->threads();
    Tick lo = maxTick, hi = 0;
    std::vector<std::uint64_t> bins;
    double width = 0, lat_sum = 0;
    std::uint64_t lat_n = 0;
    std::vector<const metrics::LatencyReservoir *> serving;
    std::uint64_t served = 0;
    for (std::size_t i = meas0; i < tcs.size(); ++i) {
        cpu::ThreadContext &tc = *tcs[i];
        lo = std::min(lo, tc.startTick());
        hi = std::max(hi, tc.done() ? tc.finishTick() : sys->now());
        sim::Histogram &h = tc.faultedOpLatencyUs();
        if (bins.empty()) {
            bins.assign(h.buckets().size(), 0);
            width = h.bucketWidth();
        }
        for (std::size_t b = 0; b < bins.size(); ++b)
            bins[b] += h.buckets()[b];
        lat_sum += h.mean() * double(h.count());
        lat_n += h.count();
        if (auto *srv = dynamic_cast<workloads::OpenLoopServer *>(
                &tc.workloadRef())) {
            serving.push_back(&srv->latency());
            served += srv->served();
            hi = std::max(hi, srv->lastCompletion());
        }
    }

    metric("model.sim_ops_per_s", "ops/s",
           ratio(double(res.completedOps), toSeconds(hi - lo)));
    metric("model.sim_seconds", "s", toSeconds(d["ticks"]));
    metric("model.fault_us_mean", "us", ratio(lat_sum, double(lat_n)),
           "faulted ops", lat_n);
    for (auto [name, q] : {std::pair{"model.fault_us_p50", 0.5},
                           std::pair{"model.fault_us_p99", 0.99}}) {
        metric(name, "us", tailQuantile(lat_n, q, [&](double p) {
                   return pooledQuantile(bins, width, lat_n, p);
               }),
               "faulted ops", lat_n);
    }
    metric("model.user_ipc", "instr/cycle",
           ratio(d["cpu.user_instr"], d["user_cycles"]), "user cycles",
           d["user_cycles"]);

    // Serving metrics exist on every workload so the result has one
    // shape; off the serving workload they read "not measured".
    for (auto [name, q] : {std::pair{"model.serve_p50_us", 0.5},
                           std::pair{"model.serve_p99_us", 0.99},
                           std::pair{"model.serve_p999_us", 0.999}}) {
        metric(name, "us", tailQuantile(served, q, [&](double p) {
                   return metrics::LatencyReservoir::quantileAcross(serving,
                                                                    p);
               }),
               "requests", served);
    }
    metric("model.serve_achieved_ratio", "ratio",
           serving.empty() ? notMeasured
                           : ratio(double(served), toSeconds(hi - lo)) /
                                 serveOfferedOpsPerSec,
           "requests", served);
}

double
Round::probeNsPerHop(HostProbe &probe)
{
    beginSpan("probe");
    double ns = probe.nsPerHop();
    endSpan();
    return ns;
}

RoundResult
Round::run()
{
    // The probe's table is filled before anything else, so its memory
    // and time can be taken out of peak_rss_mb and setup_s.
    const double probe_c0 = bench::processCpuSeconds();
    const double probe_rss0 = residentMb();
    HostProbe probe;
    const double probe_mb = residentMb() - probe_rss0;
    const double probe_init_s = bench::processCpuSeconds() - probe_c0;

    beginSpan(opt.workload);
    if (opt.workload == "fio_hwdp")
        bootFio(PagingMode::hwdp);
    else if (opt.workload == "fio_osdp")
        bootFio(PagingMode::osdp);
    else if (opt.workload == "ycsb_a")
        bootYcsb();
    else if (opt.workload == "serve_numa")
        bootServe();
    else if (opt.workload == "tier_randrw")
        bootTier();
    else
        fatal("perf_suite: unknown workload '", opt.workload, "'");

    // Everything up to here is set-up, process start included.
    const double setup_s = bench::processCpuSeconds() - probe_init_s;
    Counts before = readCounts(*sys, meas0);
    const double probe_pre = probeNsPerHop(probe);
    beginSpan("measure");
    const Clock::time_point w0 = Clock::now();
    const double c0 = bench::processCpuSeconds();
    bool ok = opt.traced ? runSliced() : sys->runUntilThreadsDone(tickLimit);
    const double measure_s = bench::processCpuSeconds() - c0;
    const double measure_wall_s =
        std::chrono::duration<double>(Clock::now() - w0).count();
    endSpan();
    // Peak RSS of the workload itself, before the suite's own checks
    // allocate. ru_maxrss is in KiB.
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0 - probe_mb;
    const double probe_ns = (probe_pre + probeNsPerHop(probe)) / 2.0;
    slowdown = probe_ns / HostProbe::referenceNsPerHop;
    Counts d = delta(readCounts(*sys, meas0), before);
    res.completedOps = d["app_ops"];
    check(ok, "measured phase hit the tick limit");
    check(res.completedOps == res.requestedOps,
          "completed " + std::to_string(res.completedOps) + " of " +
              std::to_string(res.requestedOps) + " requested ops");

    // Verification: invariants, then the end-state digest.
    std::string dump;
    std::uint64_t logical = 0;
    verifyS = timed("verify", [&] {
        if (opt.checkInvariants) {
            std::vector<std::string> bad;
            timed("checkInvariants",
                  [&] { bad = testing::checkInvariants(*sys); });
            for (std::size_t i = 0; i < bad.size() && i < 4; ++i)
                check(false, "invariant: " + bad[i]);
        }
        timed("quiesce", [&] { sys->quiesce(); });
        timed("dumpMachineStats", [&] {
            std::ostringstream os;
            testing::dumpMachineStats(*sys, os);
            dump = os.str();
        });
        timed("logicalStateHash",
              [&] { logical = testing::logicalStateHash(*sys); });
    });
    res.digest = fnv1a(0xcbf29ce484222325ULL, dump.data(), dump.size());
    res.digest = fnv1a(res.digest, &logical, sizeof(logical));

    const double faults = double(d["faults"]);
    metric("setup_s", "s", hostS(setup_s));
    metric("host_us_per_op", "us",
           ratio(hostS(measure_s) * 1e6, double(res.completedOps)), "ops",
           res.completedOps);
    metric("host_us_per_fault", "us",
           faults > 0 ? hostS(measure_s) * 1e6 / faults : notMeasured,
           "faulted ops", d["faults"]);
    metric("peak_rss_mb", "MB", peak_rss_mb);
    metric("ops_failed_frac", "ratio",
           1.0 - ratio(double(res.completedOps), double(res.requestedOps)),
           "requested ops", res.requestedOps);
    metric("host.probe_ns_per_hop", "ns", probe_ns);
    metric("host.slowdown", "x", slowdown);
    emitLayers(d, measure_s, measure_wall_s);
    emitModel(d);
    endSpan();
    return res;
}

} // namespace

RoundResult
runRound(const RoundOptions &opt)
{
    return Round(opt).run();
}

} // namespace hwdp::suite
