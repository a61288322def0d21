/**
 * @file
 * The demand-paging fault fast path.
 *
 * Device level: directed tests for the per-command completion events
 * (their pooled nodes recycle, with zero steady-state growth), doorbell
 * coalescing, the inline-fetch gate, and golden completion records of
 * a mixed snooped/interrupt storm, clean and under fault-injection
 * sites (dropped doorbells, channel stalls, error completions).
 *
 * Machine level: golden stats-dump and logical-state hashes across
 * osdp/hwdp/swsmu for FIO and YCSB-A, clean and under a 1% fault
 * plan, plus 2- and 4-socket hwdp machines clean and faulted.
 *
 * Every golden value was produced identically by the inline chain and
 * by an event-per-hop build of the same machine (one event per SMU,
 * NVMe and SSD hop); the StormParity and FastVsLegacy names record
 * that agreement.
 *
 * Checkpoint level: a device holding a command between fetch and its
 * CQ write must refuse to serialize; after draining, the blob
 * round-trips.
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

    explicit DeviceHarness(const SsdProfile &prof, std::uint64_t seed = 1)
        : dev("ssd", eq, prof, sim::Rng(seed))
    {
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
runStorm(const SsdProfile &prof, ScriptedInjector *inj)
{
    DeviceHarness h(prof);
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

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 1099511628211ULL;
    return h;
}

/** FNV-1a of a completion record as "cid@tick;" text. */
std::uint64_t
recordHash(const std::vector<std::pair<std::uint16_t, Tick>> &rec)
{
    std::ostringstream os;
    for (const auto &[cid, at] : rec)
        os << cid << '@' << at << ';';
    return fnv1a(os.str());
}

// ---- Machine-level harness -------------------------------------------------

system::MachineConfig
machineConfig(system::PagingMode mode, unsigned sockets)
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

/** One pinned machine: FNV-1a of its stats dump and its state hash. */
struct MachinePin
{
    const char *what;
    system::PagingMode mode;
    char wl;
    unsigned sockets;
    double faultRate;
    std::uint64_t statsHash;
    std::uint64_t stateHash;
};

MachineResult
expectPinned(const MachinePin &p)
{
    MachineResult r = runMachine(machineConfig(p.mode, p.sockets), p.wl,
                                 p.faultRate);
    EXPECT_EQ(fnv1a(r.stats), p.statsHash) << p.what;
    EXPECT_EQ(r.state.stateHash, p.stateHash) << p.what;
    return r;
}

} // namespace

// ---- Directed device tests -------------------------------------------------

TEST(PagingFastPath, CommandPoolGrowsOnceAndRecycles)
{
    DeviceHarness h(flatProfile());
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);

    // First storm: 32 simultaneous snooped commands grow the event
    // pool to the storm's width: one completion event per command,
    // posted from the fetch event that is still firing.
    for (std::uint16_t c = 0; c < 32; ++c)
        h.push(snoop, c, c);
    h.dev.ringSqDoorbell(snoop);
    h.eq.run();
    ASSERT_EQ(h.completions.size(), 32u);
    const std::uint64_t nodes = h.eq.poolStats().created;
    EXPECT_EQ(nodes, 33u);

    // Steady state: storm after storm, the pool never grows again.
    for (int round = 0; round < 8; ++round) {
        for (std::uint16_t c = 0; c < 32; ++c)
            h.push(snoop, c, static_cast<Lba>(c + round));
        h.dev.ringSqDoorbell(snoop);
        h.eq.run();
        EXPECT_EQ(h.eq.poolStats().created, nodes)
            << "pool grew in steady state (round " << round << ")";
    }
    EXPECT_EQ(h.completions.size(), 32u * 9);
}

TEST(PagingFastPath, DoorbellsCoalesceWithinFetchWindow)
{
    DeviceHarness h(flatProfile());
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
    DeviceHarness h(flatProfile());
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
    // Same CQ-write tick as the event path: a blocker event ahead of
    // the fetch tick makes the gate decline, so "ssd.fetch" runs it.
    DeviceHarness ref(flatProfile());
    std::uint16_t rq = ref.makeQueue(nvme::Priority::urgent, false);
    ref.eq.post(1, [] {}, "blocker");
    ref.push(rq, 7, 7);
    ref.dev.ringSqDoorbellAt(rq, 5);
    EXPECT_EQ(ref.dev.inlineFetches(), 0u);
    ref.eq.run();
    ASSERT_EQ(ref.completions.size(), 1u);
    EXPECT_EQ(h.completions[0], ref.completions[0]);

    // A host-context ring at now() must NOT fetch inline even when the
    // gate would allow it: code still executing may push more
    // same-instant commands that the scheduled fetch would coalesce.
    DeviceHarness host(flatProfile());
    std::uint16_t hq = host.makeQueue(nvme::Priority::urgent, false);
    host.push(hq, 8, 8);
    host.dev.ringSqDoorbell(hq);
    EXPECT_EQ(host.dev.inlineFetches(), 0u);
    host.eq.run();
    EXPECT_EQ(host.completions.size(), 1u);
}

TEST(PagingFastPath, StormParityFastVsReferenceFlat)
{
    auto rec = runStorm(flatProfile(), nullptr);
    ASSERT_EQ(rec.size(), 72u);
    // Round one: the first snooped read completes after fetch (100) +
    // media (1000) + transfer (50) + CQE write (10).
    EXPECT_EQ(rec[0], (std::pair<std::uint16_t, Tick>{0, 1160}));
    EXPECT_EQ(recordHash(rec), 0x8daf5ca86f13eba7ULL);
}

TEST(PagingFastPath, StormParityFastVsReferenceJittered)
{
    // Media jitter draws from the device RNG: the pin holds the draw
    // order command-for-command.
    auto rec = runStorm(jitteryProfile(), nullptr);
    ASSERT_EQ(rec.size(), 72u);
    EXPECT_EQ(recordHash(rec), 0xd3199306ee922f2aULL);
}

TEST(PagingFastPath, StormParityUnderFaultSites)
{
    // Dropped doorbells, channel stalls and error completions all at
    // once — every injector query must happen at the same point in
    // the canonical order.
    struct Pin
    {
        SsdProfile prof;
        std::uint64_t recordHash;
    } pins[] = {{flatProfile(), 0x8034c3240a79eb19ULL},
                {jitteryProfile(), 0xfb06ee1ae6cf0254ULL}};
    for (const Pin &p : pins) {
        ScriptedInjector fi;
        fi.dropEvery = 3;
        fi.dropDelay = 777;
        fi.stallEvery = 4;
        fi.stallTicks = 1500;
        fi.errEvery = 5;
        auto rec = runStorm(p.prof, &fi);
        EXPECT_EQ(rec.size(), 72u) << p.prof.mediaCv;
        EXPECT_EQ(recordHash(rec), p.recordHash) << p.prof.mediaCv;
        EXPECT_EQ(fi.nDoorbells, 36u) << p.prof.mediaCv;
        EXPECT_EQ(fi.nCommands, 72u) << p.prof.mediaCv;
    }
}

TEST(PagingFastPath, SerializeRefusesLivePooledCommands)
{
    DeviceHarness h(flatProfile());
    std::uint16_t snoop = h.makeQueue(nvme::Priority::urgent, false);
    h.push(snoop, 1, 1);
    h.dev.ringSqDoorbellAt(snoop, 1);
    // The inline fetch already serviced the command; its CQ write
    // still waits on its completion event.
    EXPECT_EQ(h.dev.inflight(), 1u);
    EXPECT_EQ(h.eq.size(), 1u);
    sim::Serializer s = sim::Serializer::saver();
    EXPECT_THROW(h.dev.serialize(s), sim::SerializeError);

    // Drained, the device serializes and round-trips.
    h.eq.run();
    sim::Serializer s2 = sim::Serializer::saver();
    h.dev.serialize(s2);
    h.eq.statRegistry().serialize(s2);
    std::vector<std::uint8_t> blob = s2.takeBlob();
    DeviceHarness twin(flatProfile());
    twin.makeQueue(nvme::Priority::urgent, false);
    sim::Serializer l = sim::Serializer::loader(blob);
    twin.dev.serialize(l);
    twin.eq.statRegistry().serialize(l);
    EXPECT_EQ(twin.dev.readsCompleted(), h.dev.readsCompleted());
}

// ---- Whole-machine golden pins ---------------------------------------------

TEST(PagingFastPath, FastVsLegacyFioAllModes)
{
    using system::PagingMode;
    const MachinePin pins[] = {
        {"fio/osdp", PagingMode::osdp, 'I', 1, 0.0,
         0xb34e06b500ed4ecdULL, 0x35f8bd00a4aaa8adULL},
        {"fio/hwdp", PagingMode::hwdp, 'I', 1, 0.0,
         0x00375e33ee2e9e54ULL, 0x35f8bd00a4aaa8adULL},
        {"fio/swsmu", PagingMode::swsmu, 'I', 1, 0.0,
         0x947472902687aab4ULL, 0x35f8bd00a4aaa8adULL},
        // One SMU/NVMe/SSD complex per socket: per-device drains and
        // doorbell coalescing with several devices live.
        {"fio/hwdp/sockets2", PagingMode::hwdp, 'I', 2, 0.0,
         0xf86c83bd34d5fda2ULL, 0xfc33fd2cdf7cbd69ULL},
        {"fio/hwdp/sockets4", PagingMode::hwdp, 'I', 4, 0.0,
         0x427b0e9b6b465880ULL, 0xea7a95ff84bdfc79ULL},
    };
    for (const MachinePin &p : pins) {
        MachineResult r = expectPinned(p);
        if (p.mode == PagingMode::hwdp) {
            // The inline chain must actually engage, or the pin proves
            // nothing about it.
            EXPECT_GT(r.inlineMisses, 0u) << p.what;
            EXPECT_GT(r.inlineFetches, 0u) << p.what;
        }
    }
}

TEST(PagingFastPath, FastVsLegacyYcsbAllModes)
{
    using system::PagingMode;
    const MachinePin pins[] = {
        {"ycsb/osdp", PagingMode::osdp, 'A', 1, 0.0,
         0x71a970dbd249043eULL, 0x6816ccf163dd3794ULL},
        {"ycsb/hwdp", PagingMode::hwdp, 'A', 1, 0.0,
         0xeba417216c4cd5a0ULL, 0x6816ccf163dd3794ULL},
        {"ycsb/swsmu", PagingMode::swsmu, 'A', 1, 0.0,
         0xfb117a7238da126fULL, 0x6816ccf163dd3794ULL},
    };
    for (const MachinePin &p : pins)
        expectPinned(p);
}

TEST(PagingFastPath, FastVsLegacyUnderFaultPlan)
{
    using system::PagingMode;
    const MachinePin pins[] = {
        {"fio+faults/hwdp/sockets1", PagingMode::hwdp, 'I', 1, 0.01,
         0x91a194319db31fddULL, 0x35f8bd00a4aaa8adULL},
        {"fio+faults/hwdp/sockets2", PagingMode::hwdp, 'I', 2, 0.01,
         0xb2998fa1a08505a3ULL, 0xfc33fd2cdf7cbd69ULL},
        {"fio+faults/hwdp/sockets4", PagingMode::hwdp, 'I', 4, 0.01,
         0x9d86a2a028d18157ULL, 0xea7a95ff84bdfc79ULL},
        {"ycsb+faults/swsmu", PagingMode::swsmu, 'A', 1, 0.01,
         0xbdebb8d711dd5766ULL, 0x6816ccf163dd3794ULL},
    };
    for (const MachinePin &p : pins) {
        MachineResult r = expectPinned(p);
        if (p.mode == PagingMode::hwdp) {
            EXPECT_GT(r.inlineMisses, 0u) << p.what;
            EXPECT_GT(r.inlineFetches, 0u) << p.what;
        }
    }
}
