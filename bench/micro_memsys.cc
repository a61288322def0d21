/**
 * @file
 * Memory-system microbenchmarks (google-benchmark): the structures on
 * the per-access fast path — TLB lookup (latch, L1, miss), the cache
 * hierarchy's L1-hit and LLC paths, the packed tag array at LLC
 * geometry, and a full MMU inline hit including the page-walk cache.
 * These isolate the costs that BENCH_memsys.json's end-to-end fig13
 * number aggregates.
 */

#include <benchmark/benchmark.h>

#include "cpu/tlb.hh"
#include "cpu/walker.hh"
#include "mem/cache_array.hh"
#include "mem/cache_hierarchy.hh"
#include "os/scheduler.hh"
#include "sim/rng.hh"
#include "system/system.hh"

using namespace hwdp;

namespace {

void
BM_TlbLookupLatchHit(benchmark::State &state)
{
    cpu::Tlb tlb;
    tlb.insert(0x1000, 1);
    tlb.lookup(0x1000); // prime the latch
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(0x1000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupLatchHit);

void
BM_TlbLookupL1Hit(benchmark::State &state)
{
    // Alternate between two pages so the one-entry latch never hits
    // and every lookup takes the flat L1 set scan.
    cpu::Tlb tlb;
    tlb.insert(0x1000, 1);
    tlb.insert(0x2000, 2);
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tlb.lookup((1 + (i++ & 1)) * 0x1000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupL1Hit);

void
BM_TlbMissAndInsert(benchmark::State &state)
{
    cpu::Tlb tlb;
    sim::Rng rng(5);
    for (auto _ : state) {
        VAddr va = rng.range(1 << 22) << pageShift;
        auto r = tlb.lookup(va);
        if (!r.hit)
            tlb.insert(va, 1);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbMissAndInsert);

void
BM_CacheArrayLlcGeometry(benchmark::State &state)
{
    // The 20 MB / 20-way LLC array: its metadata exceeds the host L2,
    // so this measures the latency-bound wide-set scan.
    mem::CacheArray llc("llc", 20 * 1024 * 1024, 20);
    sim::Rng rng(7);
    for (int i = 0; i < 400000; ++i)
        llc.access(rng.range(1 << 22) * 64); // warm to steady state
    for (auto _ : state)
        benchmark::DoNotOptimize(llc.access(rng.range(1 << 22) * 64));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLlcGeometry);

void
BM_CacheHierarchyL1Hit(benchmark::State &state)
{
    mem::CacheHierarchy caches(1, {});
    caches.access(0, 0x1000, false, ExecMode::user);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            caches.access(0, 0x1000, false, ExecMode::user));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyL1Hit);

void
BM_CacheHierarchyDeepPath(benchmark::State &state)
{
    // Random lines over 64 MB: most accesses miss every level, the
    // shape of the OS-fault pollution streams that dominate the fig13
    // osdp points.
    mem::CacheHierarchy caches(1, {});
    sim::Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(caches.access(
            0, rng.range(1 << 20) * 64, false, ExecMode::kernel));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyDeepPath);

void
BM_WalkerPresentWalk(benchmark::State &state)
{
    // Full four-level walk of a present PTE; Arg is the page-walk
    // cache capacity (0 disables it, so upper-level reads are charged
    // through the hierarchy every time).
    system::MachineConfig cfg;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 8192;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 512);
    for (unsigned i = 0; i < 512; ++i) {
        Pfn pfn = sys.physMem().alloc();
        sys.kernel().installPage(*mf.as, *mf.vma,
                                 mf.vma->start + i * pageSize, pfn,
                                 true);
    }
    cpu::Walker w(sys.caches(), 0, static_cast<unsigned>(state.range(0)));
    sim::Rng rng(13);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            w.walk(*mf.as, mf.vma->start + rng.range(512) * pageSize));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkerPresentWalk)->Arg(0)->Arg(16);

struct BenchThread : os::Thread
{
    BenchThread() : os::Thread("bench", 0) {}
    void run() override {}
};

struct BenchSink : cpu::AccessSink
{
    void accessDone(const cpu::AccessInfo &) override {}
};

void
BM_MmuInlineHit(benchmark::State &state)
{
    // End-to-end inline hit: Mmu::access with a warm TLB, the exact
    // path every batched compute-burst reference takes.
    system::MachineConfig cfg;
    cfg.nLogical = 4;
    cfg.nPhysical = 2;
    cfg.memFrames = 8192;
    system::System sys(cfg);
    auto mf = sys.mapDataset("f", 64);
    sys.preload(mf);

    BenchThread t;
    BenchSink sink;
    cpu::AccessInfo info;
    auto &mmu = sys.core(0).mmu();
    VAddr base = mf.vma->start;
    mmu.access(t, *mf.as, base, false, 0, sink, info); // warm
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mmu.access(
            t, *mf.as, base + (i++ % 16) * pageSize, false, 0, sink,
            info));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmuInlineHit);

} // namespace

BENCHMARK_MAIN();
