/**
 * @file
 * Tests for the SMU: end-to-end hardware miss handling, coalescing,
 * bounce conditions and the barrier. Each request-driven case runs on
 * both paths into the lookup: inline from the request gate, and from
 * the smu.lookup event when a pending event closes that gate.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"
#include "testing/fault_plan.hh"
#include "workloads/fio.hh"

using namespace hwdp;
using namespace hwdp::core;
namespace ht = hwdp::testing;

namespace {

/** The path a harness request takes into the SMU lookup. */
enum class Lookup { inlined, evented };

constexpr Lookup bothLookups[] = {Lookup::inlined, Lookup::evented};

const char *
lookupName(Lookup l)
{
    return l == Lookup::inlined ? "inline lookup" : "evented lookup";
}

struct Harness
{
    system::System sys;
    os::AddressSpace *as;
    os::Vma *vma;
    os::File *file;
    Lookup lookup;

    explicit Harness(Lookup lookup = Lookup::inlined,
                     unsigned pmshr_entries = 32,
                     std::uint64_t queue_cap = 64)
        : sys([&] {
              system::MachineConfig cfg;
              cfg.mode = system::PagingMode::hwdp;
              cfg.nLogical = 4;
              cfg.nPhysical = 2;
              cfg.memFrames = 1024;
              cfg.smu.pmshrEntries = pmshr_entries;
              cfg.smu.freeQueueCapacity = queue_cap;
              return cfg;
          }()),
          lookup(lookup)
    {
        auto mf = sys.mapDataset("f", 256);
        as = mf.as;
        vma = mf.vma;
        file = mf.file;
        sys.start(); // primes the free page queue
    }

    /** Issue a raw page-miss request for page @p idx on core 0. */
    void
    requestMiss(std::uint64_t idx, std::function<void(bool)> done)
    {
        VAddr va = vma->start + idx * pageSize;
        auto refs = as->pageTable().walkRefs(va, false);
        os::pte::Entry e = refs.pte.value();
        ASSERT_TRUE(os::pte::isLbaAugmented(e));

        cpu::PageMissRequest req;
        req.refs = refs;
        os::pte::LbaTarget target = os::pte::lbaTargetOf(e).value();
        req.sid = target.sid;
        req.dev = target.dev;
        req.lba = target.lba;
        req.as = as;
        req.vaddr = va;
        req.core = 0;
        req.done = std::move(done);
        // A blocker due before the lookup tick closes the request
        // gate: the request takes the mmu.smureq + smu.lookup events.
        if (lookup == Lookup::evented)
            sys.eventQueue().postIn(1, [] {}, "blocker");
        std::uint64_t inlined = sys.smu()->inlineMisses();
        sys.smu()->handleMiss(std::move(req), sys.now());
        EXPECT_EQ(sys.smu()->inlineMisses() - inlined,
                  lookup == Lookup::inlined ? 1u : 0u);
    }
};

} // namespace

TEST(Smu, SingleMissUpdatesPageTableInPlace)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        bool ok = false;
        h.requestMiss(3, [&](bool success) { ok = success; });
        h.sys.eventQueue().run(seconds(0.01));

        EXPECT_TRUE(ok);
        VAddr va = h.vma->start + 3 * pageSize;
        os::pte::Entry e = h.as->pageTable().readPte(va);
        // Present, LBA bit kept for kpted (Table I row 3).
        EXPECT_TRUE(os::pte::needsMetadataSync(e));
        // Upper levels marked for the guided scan.
        auto refs = h.as->pageTable().walkRefs(va, false);
        EXPECT_TRUE(os::pte::hasLbaBit(refs.pmd.value()));
        EXPECT_TRUE(os::pte::hasLbaBit(refs.pud.value()));
        EXPECT_EQ(h.sys.smu()->handled(), 1u);
    }
}

TEST(Smu, MissLatencyIsNearDeviceTime)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        Tick start = h.sys.now();
        Tick end = 0;
        h.requestMiss(3, [&](bool) { end = h.sys.now(); });
        h.sys.eventQueue().run(seconds(0.01));
        double us = toMicroseconds(end - start);
        // Z-SSD device time 10.9 us + ~120 ns of hardware (Figure 11b).
        EXPECT_GT(us, 10.0);
        EXPECT_LT(us, 12.5);
    }
}

TEST(Smu, DuplicateMissesCoalesce)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        int completions = 0;
        h.requestMiss(5, [&](bool s) { completions += s; });
        h.requestMiss(5, [&](bool s) { completions += s; });
        h.requestMiss(5, [&](bool s) { completions += s; });
        h.sys.eventQueue().run(seconds(0.01));

        EXPECT_EQ(completions, 3);
        EXPECT_EQ(h.sys.smu()->coalesced(), 2u);
        // Exactly ONE device read: no page aliases possible.
        EXPECT_EQ(h.sys.smu()->hostController().readsIssued(), 1u);
        EXPECT_EQ(h.sys.smu()->handled(), 1u);
    }
}

TEST(Smu, DistinctPagesDoNotCoalesce)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        int completions = 0;
        for (std::uint64_t i = 0; i < 8; ++i)
            h.requestMiss(i, [&](bool s) { completions += s; });
        h.sys.eventQueue().run(seconds(0.01));
        EXPECT_EQ(completions, 8);
        EXPECT_EQ(h.sys.smu()->coalesced(), 0u);
        EXPECT_EQ(h.sys.smu()->hostController().readsIssued(), 8u);
    }
}

TEST(Smu, PmshrFullBouncesToOs)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path, 2); // two PMSHR entries only
        int ok = 0, bounced = 0;
        for (std::uint64_t i = 0; i < 3; ++i) {
            h.requestMiss(i, [&](bool s) { s ? ++ok : ++bounced; });
        }
        h.sys.eventQueue().run(seconds(0.01));
        EXPECT_EQ(ok, 2);
        EXPECT_EQ(bounced, 1);
        EXPECT_EQ(h.sys.smu()->rejectedPmshrFull(), 1u);
    }
}

TEST(Smu, EmptyFreePageQueueBounces)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        // Drain the queue completely.
        auto &fpq = h.sys.smu()->freePageQueue();
        while (!fpq.empty()) {
            auto r = fpq.pop(0);
            h.sys.kernel().page(r.pfn).inSmuQueue = false;
            h.sys.kernel().freePage(h.sys.kernel().page(r.pfn));
        }
        bool result = true;
        h.requestMiss(1, [&](bool s) { result = s; });
        h.sys.eventQueue().run(seconds(0.001));
        EXPECT_FALSE(result);
        EXPECT_EQ(h.sys.smu()->rejectedQueueEmpty(), 1u);
        // The PMSHR entry was released.
        EXPECT_EQ(h.sys.smu()->pmshr().occupancy(), 0u);
    }
}

TEST(Smu, QueueEmptyCallbackFires)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        auto &fpq = h.sys.smu()->freePageQueue();
        while (!fpq.empty()) {
            auto r = fpq.pop(0);
            h.sys.kernel().page(r.pfn).inSmuQueue = false;
            h.sys.kernel().freePage(h.sys.kernel().page(r.pfn));
        }
        bool kicked = false;
        h.sys.smu()->setQueueEmptyCallback([&] { kicked = true; });
        h.requestMiss(1, [](bool) {});
        h.sys.eventQueue().run(seconds(0.001));
        EXPECT_TRUE(kicked);
    }
}

TEST(Smu, BarrierWaitsForOutstandingMisses)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        bool miss_done = false, barrier_done = false;
        h.requestMiss(2, [&](bool) { miss_done = true; });
        // Give the request time to allocate its PMSHR entry.
        h.sys.eventQueue().run(h.sys.now() + microseconds(1.0));
        h.sys.smu()->barrier([&] {
            barrier_done = true;
            EXPECT_TRUE(miss_done); // ordering: barrier after completion
        });
        EXPECT_FALSE(barrier_done);
        h.sys.eventQueue().run(seconds(0.01));
        EXPECT_TRUE(barrier_done);
    }
}

TEST(Smu, BarrierFiresImmediatelyWhenIdle)
{
    Harness h;
    bool done = false;
    h.sys.smu()->barrier([&] { done = true; });
    EXPECT_TRUE(done);
}

TEST(Smu, ConsumedFrameLeavesSmuQueueState)
{
    for (Lookup path : bothLookups) {
        SCOPED_TRACE(lookupName(path));
        Harness h(path);
        Pfn installed = mem::PhysMem::invalidPfn;
        h.requestMiss(7, [&](bool) {
            os::pte::Entry e = h.as->pageTable().readPte(h.vma->start +
                                                         7 * pageSize);
            installed = os::pte::pfnOf(e);
        });
        h.sys.eventQueue().run(seconds(0.01));
        ASSERT_NE(installed, mem::PhysMem::invalidPfn);
        EXPECT_FALSE(h.sys.kernel().page(installed).inSmuQueue);
        EXPECT_TRUE(h.sys.kernel().page(installed).inUse);
    }
}

TEST(Smu, DeclinedRequestStillIssuesInline)
{
    // The blocker closes the request gate, so the lookup runs from the
    // smu.lookup event. By then nothing is scheduled before the issue
    // tick, and the NVMe issue hop runs inside that event.
    Harness h(Lookup::evented);
    Tick t_l = h.sys.now() +
               (smuCosts.requestRegWrites + smuCosts.camLookup) *
                   cyclePeriod;
    bool ok = false;
    h.requestMiss(4, [&](bool s) { ok = s; });
    h.sys.eventQueue().run(t_l + 1);
    EXPECT_EQ(h.sys.smu()->hostController().readsIssued(), 1u);
    EXPECT_EQ(h.sys.smu()->hostController().inlineDoorbells(), 1u);
    h.sys.eventQueue().run(seconds(0.01));
    EXPECT_TRUE(ok);
    EXPECT_EQ(h.sys.smu()->handled(), 1u);
}

TEST(Smu, PersistentIoErrorBouncesAtItsCompletionTick)
{
    // Both reads of one miss fail: the retry's error completion
    // bounces the miss to the OS. Nothing else is scheduled near the
    // miss, so the completion gate is open and a successful completion
    // would be delivered inline, ahead of the clock. The bounce calls
    // done(false), which must see now() at the completion tick: the
    // second CQ write plus the completion protocol.
    Harness h;
    ht::FaultPlan plan("plan", h.sys.eventQueue(), 61);
    plan.attach(h.sys);
    plan.site(ht::FaultSite::ssdReadError).rate = 1.0;
    plan.site(ht::FaultSite::ssdReadError).maxInjections = 2;
    plan.arm(ht::FaultSite::ssdReadError);

    const NvmeHostController &hc = h.sys.smu()->hostController();
    Tick protocol = hc.timing().completionCycles * cyclePeriod;
    bool bounced = false, done = false;
    Tick done_at = 0, second_cqe = 0;
    h.requestMiss(6, [&](bool s) {
        bounced = !s;
        done = true;
        done_at = h.sys.now();
    });
    sim::EventQueue &eq = h.sys.eventQueue();
    while (!done && eq.now() < seconds(0.01) && eq.step()) {
        if (second_cqe == 0 && hc.errorsSnooped() == 2)
            second_cqe = eq.now();
    }
    ASSERT_TRUE(done);
    EXPECT_TRUE(bounced);
    EXPECT_EQ(h.sys.smu()->ioRetries(), 1u);
    EXPECT_EQ(h.sys.smu()->rejectedIoError(), 1u);
    ASSERT_NE(second_cqe, 0u);
    EXPECT_EQ(done_at, second_cqe + protocol);
}

TEST(Smu, SequentialPrefetchKeepsEveryHopEvented)
{
    // The prefetch's SQE push order against its demand miss depends on
    // event sequencing, so no SMU hop runs inline on such a machine.
    system::MachineConfig cfg;
    cfg.mode = system::PagingMode::hwdp;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 4096;
    cfg.smu.freeQueueCapacity = 1024;
    cfg.smu.sequentialPrefetch = true;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 2048);
    auto *wl = sys.makeWorkload<workloads::FioWorkload>(
        mf.vma, 64, 300, /*sequential=*/true);
    sys.addThread(*wl, 0, *mf.as);
    ASSERT_TRUE(sys.runUntilThreadsDone(seconds(5.0)));
    EXPECT_GT(sys.smu()->prefetches(), 0u);
    EXPECT_GT(sys.smu()->handled(), 0u);
    EXPECT_EQ(sys.smu()->inlineMisses(), 0u);
}

namespace {

/**
 * Ticks from a hardware miss request on @p core to its completion
 * broadcast, for the first page of a fresh dataset on an hwdp machine
 * built from @p cfg.
 */
Tick
missTicks(system::MachineConfig cfg, unsigned core)
{
    cfg.mode = system::PagingMode::hwdp;
    cfg.nPhysical = 2;
    cfg.memFrames = 1024;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 256);
    sys.start();

    cpu::PageMissRequest req;
    req.vaddr = mf.vma->start;
    req.refs = mf.as->pageTable().walkRefs(req.vaddr, false);
    os::pte::Entry e = req.refs.pte.value();
    os::pte::LbaTarget target = os::pte::lbaTargetOf(e).value();
    req.sid = target.sid;
    req.dev = target.dev;
    req.lba = target.lba;
    req.as = mf.as;
    req.core = core;
    Tick start = sys.now(), done_at = 0;
    req.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done_at = sys.now();
    };
    sys.smuAt(req.sid)->handleMiss(std::move(req), start);
    sys.eventQueue().run(seconds(0.01));
    EXPECT_NE(done_at, 0u);
    return done_at - start;
}

} // namespace

TEST(Smu, CycleCostsRunOnTheMachineClock)
{
    // A core on another socket pays the cross-socket premium once, on
    // top of the same machine-clock cycle costs a local core pays.
    system::MachineConfig two;
    two.nLogical = 4;
    two.sockets = 2;
    Tick local = missTicks(two, 0);
    Tick remote = missTicks(two, 2);
    EXPECT_EQ(remote - local, smuCosts.remoteRequest);
}
