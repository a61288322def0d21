/**
 * @file
 * Differential + determinism wall around the multi-socket NUMA paths.
 *
 * Single-socket machines must be untouched by the NUMA code: their
 * stats dumps carry no NUMA artifacts, and every NUMA tuning knob is
 * inert at sockets=1 (byte-identical dumps whatever its value) — the
 * differential gate standing in for "byte-identical to the pre-NUMA
 * simulator". Multi-socket machines must be deterministic: bit-equal
 * across repeated runs, stable under checkpoint save -> restore ->
 * continue, and consistent under the socket invariants (home-socket
 * queues, shootdown epoch agreement) mid-run, at completion and
 * immediately after a restore. The open-loop serving stack rides the
 * same gates on a two-socket machine.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/serialize.hh"
#include "system/checkpoint.hh"
#include "system/system.hh"
#include "testing/invariants.hh"
#include "testing/logical_state.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/open_loop.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
namespace ht = hwdp::testing;

namespace {

system::MachineConfig
baseConfig(system::PagingMode mode, unsigned sockets)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 32 * 1024; // pressure-free
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.sockets = sockets;
    return cfg;
}

struct RunResult
{
    std::string stats;
    std::uint64_t hash = 0;
};

/**
 * One thread per socket, each running the scenario's workload against
 * a dataset on its socket-local device; sockets=1 degenerates to the
 * familiar single-thread run.
 */
RunResult
runWorkload(system::MachineConfig cfg, char wl)
{
    system::System sys(cfg);
    std::vector<std::unique_ptr<workloads::KvStore>> stores;
    for (unsigned s = 0; s < cfg.sockets; ++s) {
        auto mf = sys.mapDataset("f" + std::to_string(s), 8 * 1024,
                                 nullptr, s);
        workloads::Workload *w;
        if (wl == 'I') {
            w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 1200);
        } else {
            auto *walf =
                sys.createFile("wal" + std::to_string(s), 4 * 1024, s);
            stores.push_back(std::make_unique<workloads::KvStore>(
                mf.vma, walf, 8 * 1024));
            w = sys.makeWorkload<workloads::YcsbWorkload>(
                'A', *stores.back(), 1000);
        }
        sys.addThread(*w, s * cfg.coresPerSocket(), *mf.as);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    RunResult r;
    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    r.stats = os.str();
    r.hash = ht::logicalStateHash(sys);
    return r;
}

} // namespace

// ---- Single-socket differential gate ---------------------------------------

TEST(NumaServing, SingleSocketDumpCarriesNoNumaArtifacts)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        auto r = runWorkload(baseConfig(mode, 1), 'I');
        SCOPED_TRACE(pagingModeName(mode));
        ASSERT_FALSE(r.stats.empty());
        EXPECT_EQ(r.stats.find("remote_"), std::string::npos);
        EXPECT_EQ(r.stats.find("socket"), std::string::npos);
        EXPECT_EQ(r.stats.find("shootdown_epoch"), std::string::npos);
    }
}

// ---- Multi-socket determinism ----------------------------------------------

TEST(NumaServing, TwoSocketRunsAreDeterministic)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        for (char wl : {'I', 'A'}) {
            SCOPED_TRACE(std::string(pagingModeName(mode)) + "/" + wl);
            auto a = runWorkload(baseConfig(mode, 2), wl);
            auto b = runWorkload(baseConfig(mode, 2), wl);
            ASSERT_FALSE(a.stats.empty());
            EXPECT_EQ(a.stats, b.stats);
            EXPECT_EQ(a.hash, b.hash);
        }
    }
}

TEST(NumaServing, TwoSocketDumpExposesTheNumaCounters)
{
    auto r = runWorkload(baseConfig(system::PagingMode::hwdp, 2), 'I');
    EXPECT_NE(r.stats.find("socket0.shootdown_epoch"),
              std::string::npos);
    EXPECT_NE(r.stats.find("socket1.remote_shootdowns_in"),
              std::string::npos);
    EXPECT_NE(r.stats.find("mmu0.remote_dram_accesses"),
              std::string::npos);
}

TEST(NumaServing, FourSocketRoundRobinPlacementRunsConsistently)
{
    // Four sockets of two cores each run deterministically under
    // first-touch placement.
    auto cfg = baseConfig(system::PagingMode::hwdp, 4);
    cfg.nLogical = 8;
    cfg.nPhysical = 4;
    auto a = runWorkload(cfg, 'I');
    auto b = runWorkload(cfg, 'I');
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.hash, b.hash);
}

// ---- Checkpoint round trip -------------------------------------------------

namespace {

struct NumaMachine
{
    std::unique_ptr<system::System> sys;
    std::vector<system::System::MappedFile> mfs;

    void
    addThreads(std::uint64_t ops)
    {
        for (unsigned s = 0; s < sys->numSockets(); ++s) {
            auto *w = sys->makeWorkload<workloads::FioWorkload>(
                mfs[s].vma, ops);
            sys->addThread(*w, s * (4 / sys->numSockets()),
                           *mfs[s].as);
        }
    }
};

NumaMachine
bootNuma(system::PagingMode mode)
{
    NumaMachine m;
    m.sys = std::make_unique<system::System>(baseConfig(mode, 2));
    for (unsigned s = 0; s < 2; ++s)
        m.mfs.push_back(m.sys->mapDataset("f" + std::to_string(s),
                                          8 * 1024, nullptr, s));
    m.addThreads(700);
    return m;
}

void
finishNuma(NumaMachine &m, std::string &stats, std::uint64_t &hash)
{
    m.addThreads(500);
    ASSERT_TRUE(m.sys->runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(*m.sys);
    auto inv = ht::checkInvariants(*m.sys);
    EXPECT_TRUE(inv.empty()) << inv.front();
    std::ostringstream os;
    ht::dumpMachineStats(*m.sys, os);
    stats = os.str();
    hash = ht::logicalStateHash(*m.sys);
}

} // namespace

TEST(NumaServing, TwoSocketCheckpointRoundTripIdentity)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        SCOPED_TRACE(pagingModeName(mode));

        NumaMachine a = bootNuma(mode);
        ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
        auto blob = system::Checkpoint::save(*a.sys);
        a.sys->resumeKthreads();
        std::string statsA;
        std::uint64_t hashA = 0;
        finishNuma(a, statsA, hashA);

        NumaMachine b = bootNuma(mode);
        system::Checkpoint::restore(*b.sys, blob);
        // Socket audits must pass on the freshly restored machine
        // before it runs a single further event.
        auto inv0 = ht::checkInvariants(*b.sys);
        EXPECT_TRUE(inv0.empty()) << inv0.front();
        b.sys->resumeKthreads();
        std::string statsB;
        std::uint64_t hashB = 0;
        finishNuma(b, statsB, hashB);

        EXPECT_EQ(hashA, hashB);
        EXPECT_EQ(statsA, statsB);
    }
}

TEST(NumaServing, TwoSocketBlobRejectsSingleSocketTarget)
{
    NumaMachine a = bootNuma(system::PagingMode::hwdp);
    ASSERT_TRUE(a.sys->runUntilThreadsDone(seconds(30.0)));
    auto blob = system::Checkpoint::save(*a.sys);

    // A machine with a different socket count is a different shape.
    system::System other(baseConfig(system::PagingMode::hwdp, 1));
    auto mf = other.mapDataset("f0", 8 * 1024);
    auto *w = other.makeWorkload<workloads::FioWorkload>(mf.vma, 700);
    other.addThread(*w, 0, *mf.as);
    EXPECT_THROW(system::Checkpoint::restore(other, blob),
                 sim::SerializeError);
}

// ---- Open-loop serving on a two-socket machine -----------------------------

TEST(NumaServing, OpenLoopServingDeterministicOnTwoSockets)
{
    auto runServing = [] {
        auto cfg = baseConfig(system::PagingMode::hwdp, 2);
        system::System sys(cfg);
        auto mf = sys.mapDataset("kv", 8 * 1024);
        auto *wal = sys.createFile("wal", 4 * 1024);
        workloads::KvStore store(mf.vma, wal, 8 * 1024);

        workloads::OpenLoopParams p;
        p.offeredOpsPerSec = 50e3;
        p.totalRequests = 1500;
        p.nServers = 2;
        workloads::OpenLoopSource src(
            store, p, sim::Rng(cfg.seed ^ 0x6f70656e6c6f6fULL));
        std::vector<workloads::OpenLoopServer *> servers;
        for (unsigned t = 0; t < p.nServers; ++t) {
            auto *w =
                sys.makeWorkload<workloads::OpenLoopServer>(src, t);
            servers.push_back(w);
            // One server per socket.
            sys.addThread(*w, t * cfg.coresPerSocket(), *mf.as);
        }
        EXPECT_TRUE(sys.runUntilThreadsDone(seconds(60.0)));
        ht::quiesce(sys);
        auto inv = ht::checkInvariants(sys);
        EXPECT_TRUE(inv.empty()) << inv.front();

        RunResult r;
        std::uint64_t served = 0;
        std::vector<const metrics::LatencyReservoir *> rs;
        for (auto *s : servers) {
            served += s->served();
            rs.push_back(&s->latency());
        }
        EXPECT_EQ(served, p.totalRequests);
        std::ostringstream os;
        ht::dumpMachineStats(sys, os);
        os << "p99 "
           << metrics::LatencyReservoir::quantileAcross(rs, 0.99)
           << "\n";
        r.stats = os.str();
        r.hash = ht::logicalStateHash(sys);
        return r;
    };

    auto a = runServing();
    auto b = runServing();
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.hash, b.hash);
}
