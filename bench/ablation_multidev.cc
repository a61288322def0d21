/**
 * @file
 * Multi-device and per-core free page queue ablations.
 *
 * The PTE's <SID, device id, LBA> decomposition (Section III-B) lets
 * one SMU serve up to 8 block devices; the per-core free page queue
 * variant (Section V future work) gives the OS a per-thread handle
 * for memory policy and isolates cores from each other's refill
 * races. Both are exercised here.
 *
 * Flags:
 *   --warm-ops=N / --checkpoint-dir=PATH
 *                      warm-fork protocol (bench_common.hh): each
 *                      ablation point runs an FIO warm prefix before
 *                      its real threads; with a checkpoint dir the
 *                      family warms once and every rerun forks from
 *                      the blob. Default 0: cold points, unchanged
 *                      behavior.
 *   --identity-check   run the two-device isolation point, checkpoint
 *                      the finished machine, restore into a fresh
 *                      boot and verify the logical-state hash and the
 *                      measured figures survive the round trip
 *                      bit-exactly (fig18_numa_serving's gate)
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_common.hh"
#include "testing/logical_state.hh"

using namespace hwdp;
using metrics::Table;

namespace {

struct Writer : workloads::Workload
{
    os::File *wal;
    std::uint64_t n = 0;
    std::uint64_t limit;
    Writer(os::File *w, std::uint64_t limit) : wal(w), limit(limit) {}
    workloads::Op
    next(sim::Rng &) override
    {
        if (n >= limit)
            return workloads::Op::makeDone();
        return workloads::Op::makeFileWrite(wal, n++, pageSize, true);
    }
    const char *label() const override { return "writer"; }
};

/**
 * FIO warm prefix for one ablation point. The warm thread is part of
 * the boot recipe on both paths (a restore target must be built
 * exactly as the saved machine was); with --checkpoint-dir the first
 * run of a family saves the warmed machine and every later run forks
 * from the blob.
 */
void
warmPoint(system::System &sys, const bench::WarmFork &wf,
          const char *family, const system::MachineConfig &cfg,
          os::Vma *vma, os::AddressSpace &as)
{
    if (!wf.enabled())
        return;
    auto *warm =
        sys.makeWorkload<workloads::FioWorkload>(vma, wf.warmOps);
    sys.addThread(*warm, 0, as);
    bool restored = false;
    std::string path;
    system::CheckpointStats st;
    if (wf.forked()) {
        path = bench::warmCheckpointPath(wf, family, cfg, 1);
        restored = system::Checkpoint::restoreFile(sys, path, &st);
    }
    if (!restored) {
        sys.runUntilThreadsDone(seconds(240.0));
        if (!path.empty())
            system::Checkpoint::saveFile(sys, path, &st);
        else
            sys.quiesce();
    }
    sys.resumeKthreads();
}

struct IsolationPoint
{
    double readLatencyUs = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t logicalHash = 0;
};

/** Boot the two-device isolation machine (shared by the identity
 *  check's straight and forked runs — a restore target must repeat
 *  the recipe). */
system::System::MappedFile
bootIsolation(system::System &sys)
{
    auto data = sys.mapDataset("data", 64 * 1024, nullptr, 1);
    auto *wal = sys.createFile("wal", 16 * 1024, 0);
    sys.addThread(*sys.makeWorkload<Writer>(wal, 6000), 0, *data.as);
    auto *rd = sys.makeWorkload<workloads::FioWorkload>(data.vma, 3000);
    sys.addThread(*rd, 1, *data.as);
    return data;
}

IsolationPoint
measureIsolation(system::System &sys)
{
    IsolationPoint p;
    p.readLatencyUs = sys.threads()[1]->faultedOpLatencyUs().mean();
    p.writesCompleted = sys.ssdAt(0).writesCompleted();
    return p;
}

/** Completion-checkpoint identity: straight vs save -> restore. */
bool
identityCheck()
{
    auto cfg = bench::paperConfig(system::PagingMode::hwdp);
    cfg.nDevices = 2;

    system::System straight(cfg);
    bootIsolation(straight);
    straight.runUntilThreadsDone(seconds(60.0));
    IsolationPoint a = measureIsolation(straight);
    straight.quiesce();
    a.logicalHash = testing::logicalStateHash(straight);
    auto blob = system::Checkpoint::save(straight);

    system::System forked(cfg);
    bootIsolation(forked);
    system::Checkpoint::restore(forked, blob);
    IsolationPoint b = measureIsolation(forked);
    b.logicalHash = testing::logicalStateHash(forked);

    bool ok = a.logicalHash == b.logicalHash &&
              a.readLatencyUs == b.readLatencyUs &&
              a.writesCompleted == b.writesCompleted;
    std::printf("identity: straight hash %016llx, forked hash %016llx, "
                "read lat %.2f/%.2f, writes %llu/%llu -> %s\n",
                static_cast<unsigned long long>(a.logicalHash),
                static_cast<unsigned long long>(b.logicalHash),
                a.readLatencyUs, b.readLatencyUs,
                static_cast<unsigned long long>(a.writesCompleted),
                static_cast<unsigned long long>(b.writesCompleted),
                ok ? "MATCH" : "MISMATCH");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::WarmFork wf = bench::parseWarmFork(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--identity-check") == 0)
            return identityCheck() ? 0 : 1;
    }

    metrics::banner("Ablation: read/write isolation across devices",
                    "reads on their own device dodge the writer's "
                    "channel occupancy");
    {
        struct DevResult
        {
            double readLatencyUs = 0;
            std::uint64_t writesCompleted = 0;
        };
        bench::SweepRunner runner;
        auto results = runner.map<DevResult>(2, [&](std::size_t i) {
            unsigned devices = static_cast<unsigned>(i) + 1;
            auto cfg = bench::paperConfig(system::PagingMode::hwdp);
            cfg.nDevices = devices;
            system::System sys(cfg);
            unsigned reader_dev = devices - 1;
            auto data =
                sys.mapDataset("data", 64 * 1024, nullptr, reader_dev);
            warmPoint(sys, wf, "abl-dev", cfg, data.vma, *data.as);
            auto *wal = sys.createFile("wal", 16 * 1024, 0);
            sys.addThread(*sys.makeWorkload<Writer>(wal, 6000), 0,
                          *data.as);
            auto *rd = sys.makeWorkload<workloads::FioWorkload>(
                data.vma, 3000);
            auto *tc = sys.addThread(*rd, 1, *data.as);
            sys.runUntilThreadsDone(seconds(60.0));
            return DevResult{tc->faultedOpLatencyUs().mean(),
                             sys.ssdAt(0).writesCompleted()};
        });
        Table t({"layout", "read latency us", "writes completed"});
        for (std::size_t i = 0; i < results.size(); ++i)
            t.addRow({i == 0 ? "shared device" : "reads on second device",
                      Table::num(results[i].readLatencyUs),
                      std::to_string(results[i].writesCompleted)});
        t.print();
    }

    metrics::banner("Ablation: global vs per-core free page queues",
                    "does splitting the pool help or hurt?");
    {
        struct Cfg
        {
            const char *label;
            bool perCore;
            std::uint64_t capacity;
        };
        const std::vector<Cfg> grid = {
            {"global", false, 1024},
            {"per-core, same total", true, 1024},
            {"per-core, sized per core", true, 16 * 1024}};
        struct QueueResult
        {
            std::uint64_t stormBounces = 0;
            std::uint64_t victimBounces = 0;
            double victimLatencyUs = 0;
        };
        bench::SweepRunner runner;
        auto results =
            runner.map<QueueResult>(grid.size(), [&](std::size_t i) {
                const Cfg &qc = grid[i];
                auto cfg = bench::paperConfig(system::PagingMode::hwdp);
                cfg.smu.perCoreFreeQueues = qc.perCore;
                cfg.smu.freeQueueCapacity = qc.capacity;
                cfg.kpooldPeriod = milliseconds(8.0); // slow: storms bite
                system::System sys(cfg);
                auto mf =
                    sys.mapDataset("f", 16 * bench::defaultMemFrames);
                warmPoint(sys, wf, "abl-fpq", cfg, mf.vma, *mf.as);

                // Core 0: fault storm. Core 1: modest reader (victim).
                auto *storm = sys.makeWorkload<workloads::FioWorkload>(
                    mf.vma, 12000);
                sys.addThread(*storm, 0, *mf.as);
                auto *victim = sys.makeWorkload<workloads::FioWorkload>(
                    mf.vma, 1500);
                auto *vtc = sys.addThread(*victim, 1, *mf.as);
                sys.runUntilThreadsDone(seconds(60.0));

                return QueueResult{sys.core(0).mmu().smuRejections(),
                                   sys.core(1).mmu().smuRejections(),
                                   vtc->faultedOpLatencyUs().mean()};
            });
        Table t({"queues", "total entries", "storm-core OS bounces",
                 "victim-core OS bounces", "victim latency us"});
        for (std::size_t i = 0; i < grid.size(); ++i)
            t.addRow({grid[i].label, std::to_string(grid[i].capacity),
                      std::to_string(results[i].stormBounces),
                      std::to_string(results[i].victimBounces),
                      Table::num(results[i].victimLatencyUs)});
        t.print();
        std::printf("\nfinding: at equal total size, per-core queues "
                    "FRAGMENT the pool (the storm core exhausts its "
                    "1/16th while the victim's 15/16ths sit idle) — "
                    "their value is per-thread policy enforcement "
                    "(Section V), and they must be sized per core, "
                    "which the third row shows largely restores "
                    "hardware-only operation\n");
    }
    return 0;
}
