/**
 * @file
 * Engine microbenchmarks (google-benchmark): the hot paths the
 * figure benches lean on — event queue throughput, PMSHR CAM lookup,
 * cache tag-array access, zipfian key generation and page-table
 * walks.
 */

#include <benchmark/benchmark.h>

#include "core/pmshr.hh"
#include "mem/cache_array.hh"
#include "os/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workloads/key_chooser.hh"

using namespace hwdp;

namespace {

void
BM_EventQueueOneShotPooled(benchmark::State &state)
{
    sim::EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        eq.post(++t, [] {});
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueOneShotPooled);

void
BM_EventQueueFanoutPooled(benchmark::State &state)
{
    // A System owns one queue for its whole run, so the queue lives
    // across rounds; each round posts and fires a 1024-event burst.
    sim::EventQueue eq;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Tick base = eq.now();
        for (int i = 0; i < 1024; ++i)
            eq.post(base + static_cast<Tick>(i + 1), [] {});
        eq.run();
        events += 1024;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueFanoutPooled);

void
BM_EventQueueSteadyStatePooled(benchmark::State &state)
{
    // Steady-state engine traffic: a reused queue with a rolling
    // window of pending one-shots, the shape the subsystem models
    // generate. No allocation on this path (see poolStats).
    sim::EventQueue eq;
    for (int i = 0; i < 64; ++i)
        eq.postIn(static_cast<Tick>(i + 1) * 100, [] {});
    for (auto _ : state) {
        eq.postIn(6400, [] {});
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
    eq.run();
}
BENCHMARK(BM_EventQueueSteadyStatePooled);

void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    // One dense near event at a time while two long-period timers
    // (kpoold's 4 ms rearm, a 16 ms kpted period) stay pending: the
    // cost of a short-delay post and step with the queue holding
    // timers far in the future.
    sim::EventQueue eq;
    int timers = 0;
    std::function<void()> rearm = [&] {
        ++timers;
        eq.postIn(milliseconds(4.0), rearm, "kpoold.period");
    };
    eq.postIn(milliseconds(4.0), rearm, "kpoold.period");
    eq.postIn(milliseconds(16.0), [] {}, "kpted.period");
    for (auto _ : state) {
        eq.postIn(nanoseconds(2.0), [] {}, "cache.fill");
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
    benchmark::DoNotOptimize(timers);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void
BM_PmshrLookup(benchmark::State &state)
{
    core::Pmshr pmshr(static_cast<unsigned>(state.range(0)));
    for (int i = 0; i < state.range(0); ++i)
        pmshr.allocate(0x1000 + i * 8);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pmshr.lookup(0x1000 + (i++ % state.range(0)) * 8));
    }
}
BENCHMARK(BM_PmshrLookup)->Arg(8)->Arg(32)->Arg(128);

void
BM_CacheArrayAccess(benchmark::State &state)
{
    mem::CacheArray cache("bench", 32 * 1024, 8);
    sim::Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.range(1 << 20) * 64));
}
BENCHMARK(BM_CacheArrayAccess);

void
BM_ZipfianNext(benchmark::State &state)
{
    workloads::ZipfianChooser zipf(1 << 20);
    sim::Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng, 1 << 20));
}
BENCHMARK(BM_ZipfianNext);

void
BM_PageTableWalkRefs(benchmark::State &state)
{
    os::PageTable pt;
    sim::Rng rng(13);
    for (std::uint64_t i = 0; i < 4096; ++i)
        pt.writePte(i * pageSize, os::pte::makePresent(i, 0));
    for (auto _ : state) {
        VAddr va = rng.range(4096) * pageSize;
        benchmark::DoNotOptimize(pt.walkRefs(va, false));
    }
}
BENCHMARK(BM_PageTableWalkRefs);

void
BM_KptedGuidedScan(benchmark::State &state)
{
    os::PageTable pt;
    // 64Ki PTEs with a sparse set of hardware-handled entries.
    sim::Rng rng(17);
    for (std::uint64_t i = 0; i < 65536; ++i)
        pt.writePte(i * pageSize,
                    os::pte::makeLbaAugmented(0, 0, i, 0));
    for (int i = 0; i < 128; ++i) {
        VAddr va = rng.range(65536) * pageSize;
        auto refs = pt.walkRefs(va, true);
        refs.pte.write(os::pte::makePresent(1, 0, true));
        pt.markUpperLba(va);
    }
    for (auto _ : state) {
        state.PauseTiming();
        // Re-mark a fresh batch so each iteration has work.
        for (int i = 0; i < 128; ++i) {
            VAddr va = rng.range(65536) * pageSize;
            auto refs = pt.walkRefs(va, true);
            refs.pte.write(os::pte::makePresent(1, 0, true));
            pt.markUpperLba(va);
        }
        state.ResumeTiming();
        std::uint64_t visited = 0;
        pt.scanUnsynced(0, 65536 * pageSize,
                        [](VAddr, os::EntryRef ref) {
                            ref.write(os::pte::clearLbaBit(ref.value()));
                        },
                        &visited);
        benchmark::DoNotOptimize(visited);
    }
}
BENCHMARK(BM_KptedGuidedScan);

} // namespace

BENCHMARK_MAIN();
