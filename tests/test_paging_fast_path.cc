/**
 * @file
 * The demand-paging fault fast path.
 *
 * Device level: directed tests for the pooled NVMe command/completion
 * nodes (exhaustion, recycling, zero steady-state growth), doorbell
 * coalescing, and tick-for-tick parity of the fast path against the
 * event-per-hop reference under fault-injection sites (dropped
 * doorbells, channel stalls, error completions) and mixed
 * snooped/interrupt queues.
 *
 * Machine level: whole-machine differential fast==legacy across
 * osdp/hwdp/swsmu for FIO and YCSB-A, clean and under a 1% fault
 * plan, plus 2- and 4-socket hwdp machines clean and faulted —
 * byte-identical stats dumps and equal logical-state hashes.
 *
 * Checkpoint level: a device holding live pooled completions must
 * refuse to serialize; after draining, the blob round-trips.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/serialize.hh"
#include "ssd/ssd_device.hh"
#include "ssd/ssd_profile.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
using namespace hwdp::ssd;
namespace ht = hwdp::testing;

namespace {

// ---- Device-level harness --------------------------------------------------

SsdProfile
flatProfile()
{
    SsdProfile p;
    p.name = "flat";
    p.cmdFetch = 100;
    p.readMedia = 1000;
    p.writeMedia = 5000;
    p.xfer4k = 50;
    p.cqeWrite = 10;
    p.channels = 2;
    p.mediaCv = 0.0;
    p.interruptLatency = 30;
    return p;
}

SsdProfile
jitteryProfile()
{
    SsdProfile p = flatProfile();
    p.mediaCv = 0.25; // exercise the RNG draw-order argument
    return p;
}

/** Scripted injector hitting the FaultPlan sites deterministically. */
struct ScriptedInjector final : IoFaultInjector
{
    Tick dropEvery = 0;   ///< Drop delay on every Nth doorbell.
    Tick dropDelay = 0;
    Tick stallEvery = 0;  ///< Channel stall on every Nth command.
    Tick stallTicks = 0;
    unsigned errEvery = 0; ///< Error status on every Nth command.
    std::uint64_t nDoorbells = 0;
    std::uint64_t nCommands = 0;

    IoFaultDecision
    onCommand(const nvme::SubmissionEntry &, std::uint16_t) override
    {
        ++nCommands;
        IoFaultDecision d;
        if (stallEvery && nCommands % stallEvery == 0)
            d.channelStall = stallTicks;
        if (errEvery && nCommands % errEvery == 0)
            d.status = 0x0281; // media error
        return d;
    }

    Tick
    doorbellDropDelay(std::uint16_t) override
    {
        ++nDoorbells;
        return (dropEvery && nDoorbells % dropEvery == 0) ? dropDelay
                                                          : 0;
    }
};

struct DeviceHarness
{
    sim::EventQueue eq;
    SsdDevice dev;
    std::vector<std::pair<std::uint16_t, Tick>> completions;

    DeviceHarness(const SsdProfile &prof, bool fast,
                  std::uint64_t seed = 1)
        : dev("ssd", eq, prof, sim::Rng(seed))
    {
        dev.setFastPath(fast);
    }

    std::uint16_t
    makeQueue(nvme::Priority prio, bool irq, std::uint16_t depth = 256)
    {
        std::uint16_t qid = dev.createQueuePair(depth, prio, irq);
        dev.setCompletionListener(
            qid,
            [this](std::uint16_t q, const nvme::CompletionEntry &c) {
                completions.emplace_back(c.cid, eq.now());
                if (dev.queuePair(q).cqHasWork())
                    dev.queuePair(q).popCqe();
            });
        return qid;
    }

    void
    push(std::uint16_t qid, std::uint16_t cid, Lba lba,
         nvme::Opcode op = nvme::Opcode::read)
    {
        nvme::SubmissionEntry e;
        e.opcode = op;
        e.cid = cid;
        e.slba = lba;
        ASSERT_TRUE(dev.queuePair(qid).pushSqe(e));
    }
};

/**
 * Drive an identical two-queue storm (snooped urgent + interrupt
 * normal, interleaved rings, both opcodes, several doorbells per
 * fetch window) through one device and return the completion record.
 */
std::vector<std::pair<std::uint16_t, Tick>>
runStorm(const SsdProfile &prof, bool fast, ScriptedInjector *inj)
{
    DeviceHarness h(prof, fast);
    if (inj)
        h.dev.setFaultInjector(inj);
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);
    std::uint16_t irq = h.makeQueue(nvme::Priority::medium, true);

    std::uint16_t cid = 0;
    for (int round = 0; round < 12; ++round) {
        // A clump of snooped reads across both channels...
        for (int i = 0; i < 3; ++i) {
            h.push(snoop, cid, static_cast<Lba>(cid));
            ++cid;
        }
        h.dev.ringSqDoorbell(snoop);
        // ...an interrupt-queue read and write racing it...
        h.push(irq, cid, static_cast<Lba>(cid));
        ++cid;
        h.push(irq, cid, static_cast<Lba>(cid), nvme::Opcode::write);
        ++cid;
        h.dev.ringSqDoorbell(irq);
        // ...and a second snoop ring inside the same fetch window.
        h.push(snoop, cid, static_cast<Lba>(cid));
        ++cid;
        h.dev.ringSqDoorbell(snoop);
        h.eq.run();
    }
    return h.completions;
}

// ---- Machine-level harness -------------------------------------------------

system::MachineConfig
machineConfig(system::PagingMode mode, bool fast, unsigned sockets = 1)
{
    system::MachineConfig cfg;
    cfg.mode = mode;
    cfg.nLogical = sockets > 2 ? 8 : 4;
    cfg.nPhysical = sockets > 2 ? 4 : 2;
    cfg.memFrames = 32 * 1024;
    cfg.smu.freeQueueCapacity = 512;
    cfg.kpooldPeriod = milliseconds(1.0);
    cfg.kptedPeriod = milliseconds(4.0);
    cfg.sockets = sockets;
    cfg.faultFastPath = fast;
    return cfg;
}

struct MachineResult
{
    ht::MachineState state;
    std::string stats;
    std::uint64_t inlineMisses = 0;
    std::uint64_t inlineFetches = 0;
};

MachineResult
runMachine(system::MachineConfig cfg, char wl, double fault_rate)
{
    system::System sys(cfg);
    ht::FaultPlan plan("plan", sys.eventQueue(), wl == 'I' ? 97 : 101);
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
    if (fault_rate > 0.0) {
        plan.attach(sys);
        plan.armAllAtRate(fault_rate);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    ht::quiesce(sys);
    auto inv = ht::checkInvariants(sys);
    EXPECT_TRUE(inv.empty()) << inv.front();

    MachineResult r;
    r.state = ht::snapshot(sys, pagingModeName(cfg.mode));
    std::ostringstream os;
    ht::dumpMachineStats(sys, os);
    r.stats = os.str();
    for (unsigned s = 0; s < sys.numSockets(); ++s)
        if (core::Smu *smu = sys.smuAt(s))
            r.inlineMisses += smu->inlineMisses();
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        r.inlineFetches += sys.ssdAt(d).inlineFetches();
    return r;
}

void
expectIdentical(const MachineResult &a, const MachineResult &b,
                const std::string &what)
{
    auto d = ht::diff(a.state, b.state);
    EXPECT_TRUE(d.equivalent) << what << ": " << d.report;
    EXPECT_EQ(a.state.stateHash, b.state.stateHash) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
}

} // namespace

// ---- Directed device tests -------------------------------------------------

TEST(PagingFastPath, CommandPoolGrowsOnceAndRecycles)
{
    DeviceHarness h(flatProfile(), true);
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);

    // First storm: 32 simultaneous snooped commands grow the pool to
    // the batch's width.
    for (std::uint16_t c = 0; c < 32; ++c)
        h.push(snoop, c, c);
    h.dev.ringSqDoorbell(snoop);
    h.eq.run();
    ASSERT_EQ(h.completions.size(), 32u);
    std::uint64_t nodes = h.dev.pooledNodesCreated();
    EXPECT_GT(nodes, 0u);
    EXPECT_LE(nodes, 32u);
    EXPECT_EQ(h.dev.pooledPendingHighWater(), nodes);

    // Steady state: storm after storm, the pool never grows again.
    for (int round = 0; round < 8; ++round) {
        for (std::uint16_t c = 0; c < 32; ++c)
            h.push(snoop, c, static_cast<Lba>(c + round));
        h.dev.ringSqDoorbell(snoop);
        h.eq.run();
        EXPECT_EQ(h.dev.pooledNodesCreated(), nodes)
            << "pool grew in steady state (round " << round << ")";
    }
    EXPECT_EQ(h.completions.size(), 32u * 9);
}

TEST(PagingFastPath, DoorbellsCoalesceWithinFetchWindow)
{
    DeviceHarness h(flatProfile(), true);
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);

    // A pending event before the fetch tick defeats the inline gate,
    // forcing a scheduled fetch; further rings inside the window must
    // coalesce onto it instead of posting their own.
    h.eq.post(1, [] {}, "blocker");
    for (std::uint16_t c = 0; c < 4; ++c) {
        h.push(snoop, c, c);
        h.dev.ringSqDoorbell(snoop);
    }
    EXPECT_EQ(h.dev.doorbellRings(), 4u);
    EXPECT_EQ(h.dev.doorbellsCoalesced(), 3u);
    EXPECT_EQ(h.dev.inlineFetches(), 0u);
    h.eq.run();
    // One fetch drained all four commands.
    EXPECT_EQ(h.completions.size(), 4u);
}

TEST(PagingFastPath, InlineFetchRunsWhenGateAllows)
{
    DeviceHarness h(flatProfile(), true);
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);
    // A ring arriving ahead of the clock (the inline fault chain's
    // shape: doorbell delay already applied, nothing left to push)
    // with an empty queue: nothing can beat the fetch tick, so the
    // doorbell fetches inline without an "ssd.fetch" event.
    h.push(snoop, 7, 7);
    h.dev.ringSqDoorbellAt(snoop, 5);
    EXPECT_EQ(h.dev.inlineFetches(), 1u);
    h.eq.run();
    ASSERT_EQ(h.completions.size(), 1u);
    // Same CQ-write tick as the reference path computes.
    DeviceHarness ref(flatProfile(), false);
    std::uint16_t rq = ref.makeQueue(nvme::Priority::urgent, false);
    ref.push(rq, 7, 7);
    ref.dev.ringSqDoorbellAt(rq, 5);
    ref.eq.run();
    ASSERT_EQ(ref.completions.size(), 1u);
    EXPECT_EQ(h.completions[0], ref.completions[0]);

    // A host-context ring at now() must NOT fetch inline even when the
    // gate would allow it: code still executing may push more
    // same-instant commands that the scheduled fetch would coalesce.
    DeviceHarness host(flatProfile(), true);
    std::uint16_t hq = host.makeQueue(nvme::Priority::urgent, false);
    host.push(hq, 8, 8);
    host.dev.ringSqDoorbell(hq);
    EXPECT_EQ(host.dev.inlineFetches(), 0u);
    host.eq.run();
    EXPECT_EQ(host.completions.size(), 1u);
}

TEST(PagingFastPath, StormParityFastVsReferenceFlat)
{
    auto fast = runStorm(flatProfile(), true, nullptr);
    auto ref = runStorm(flatProfile(), false, nullptr);
    EXPECT_EQ(fast, ref);
}

TEST(PagingFastPath, StormParityFastVsReferenceJittered)
{
    // Media jitter draws from the device RNG: parity here proves the
    // fast path preserves the draw order command-for-command.
    auto fast = runStorm(jitteryProfile(), true, nullptr);
    auto ref = runStorm(jitteryProfile(), false, nullptr);
    EXPECT_EQ(fast, ref);
}

TEST(PagingFastPath, StormParityUnderFaultSites)
{
    // Dropped doorbells, channel stalls and error completions all at
    // once — every injector query must happen at the same point in
    // the canonical order on both paths.
    for (const SsdProfile &prof : {flatProfile(), jitteryProfile()}) {
        ScriptedInjector fi;
        fi.dropEvery = 3;
        fi.dropDelay = 777;
        fi.stallEvery = 4;
        fi.stallTicks = 1500;
        fi.errEvery = 5;
        auto fast = runStorm(prof, true, &fi);

        ScriptedInjector ri;
        ri.dropEvery = 3;
        ri.dropDelay = 777;
        ri.stallEvery = 4;
        ri.stallTicks = 1500;
        ri.errEvery = 5;
        auto ref = runStorm(prof, false, &ri);

        EXPECT_EQ(fast, ref) << prof.name;
        EXPECT_EQ(fi.nDoorbells, ri.nDoorbells) << prof.name;
        EXPECT_EQ(fi.nCommands, ri.nCommands) << prof.name;
    }
}

TEST(PagingFastPath, SerializeRefusesLivePooledCommands)
{
    DeviceHarness h(flatProfile(), true);
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);
    h.push(snoop, 1, 1);
    h.dev.ringSqDoorbellAt(snoop, 1);
    // The inline fetch already serviced the command into the pending
    // pool; its CQ write still waits on the drain event.
    EXPECT_GT(h.dev.pooledPendingHighWater(), 0u);
    sim::Serializer s = sim::Serializer::saver();
    EXPECT_THROW(h.dev.serialize(s), sim::SerializeError);

    // Drained, the device serializes and round-trips.
    h.eq.run();
    sim::Serializer s2 = sim::Serializer::saver();
    h.dev.serialize(s2);
    std::vector<std::uint8_t> blob = s2.takeBlob();
    DeviceHarness twin(flatProfile(), true);
    twin.makeQueue(nvme::Priority::urgent, false);
    sim::Serializer l = sim::Serializer::loader(blob);
    twin.dev.serialize(l);
    EXPECT_EQ(twin.dev.readsCompleted(), h.dev.readsCompleted());
}

// ---- Whole-machine differential: fast == legacy ----------------------------

TEST(PagingFastPath, FastVsLegacyFioAllModes)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        auto fast = runMachine(machineConfig(mode, true), 'I', 0.0);
        auto legacy = runMachine(machineConfig(mode, false), 'I', 0.0);
        expectIdentical(fast, legacy,
                        std::string("fio/") + pagingModeName(mode));
        if (mode == system::PagingMode::hwdp) {
            // The fast path must actually engage, or this test proves
            // nothing.
            EXPECT_GT(fast.inlineMisses, 0u);
            EXPECT_GT(fast.inlineFetches, 0u);
            EXPECT_EQ(legacy.inlineMisses, 0u);
        }
    }
    // One SMU/NVMe/SSD complex per socket: per-device drains and
    // doorbell coalescing must stay exact with several devices live.
    for (unsigned sockets : {2u, 4u}) {
        auto fast = runMachine(
            machineConfig(system::PagingMode::hwdp, true, sockets), 'I', 0.0);
        auto legacy = runMachine(
            machineConfig(system::PagingMode::hwdp, false, sockets), 'I',
            0.0);
        expectIdentical(fast, legacy,
                        "fio/hwdp/sockets" + std::to_string(sockets));
    }
}

TEST(PagingFastPath, FastVsLegacyYcsbAllModes)
{
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp,
                      system::PagingMode::swsmu}) {
        auto fast = runMachine(machineConfig(mode, true), 'A', 0.0);
        auto legacy = runMachine(machineConfig(mode, false), 'A', 0.0);
        expectIdentical(fast, legacy,
                        std::string("ycsb/") + pagingModeName(mode));
    }
}

TEST(PagingFastPath, FastVsLegacyUnderFaultPlan)
{
    for (unsigned sockets : {1u, 2u, 4u}) {
        auto fast = runMachine(
            machineConfig(system::PagingMode::hwdp, true, sockets), 'I',
            0.01);
        auto legacy = runMachine(
            machineConfig(system::PagingMode::hwdp, false, sockets), 'I',
            0.01);
        expectIdentical(fast, legacy,
                        "fio+faults/hwdp/sockets" + std::to_string(sockets));
    }

    auto fa = runMachine(machineConfig(system::PagingMode::swsmu, true),
                         'A', 0.01);
    auto la = runMachine(machineConfig(system::PagingMode::swsmu, false),
                         'A', 0.01);
    expectIdentical(fa, la, "ycsb+faults/swsmu");
}
