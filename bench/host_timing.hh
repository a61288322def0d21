/**
 * @file
 * Steal-immune host timing for the bench harness.
 *
 * The bench boxes are shared containers: wall clocks swing with
 * co-tenant load (the BENCH_*.json protocol notes record 40% drift on
 * identical binaries), so headline numbers use process CPU time from
 * getrusage — time the scheduler actually granted us, immune to steal
 * and co-tenant interference — and report the median of N repeats
 * instead of a single sample. Wall time is still captured beside it.
 */

#ifndef HWDP_BENCH_HOST_TIMING_HH
#define HWDP_BENCH_HOST_TIMING_HH

#include <algorithm>
#include <chrono>
#include <vector>

#include <sys/resource.h>

namespace hwdp::bench {

/** Process CPU seconds (user + system, all threads), RUSAGE_SELF. */
inline double
processCpuSeconds()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Calling thread's CPU seconds (per-job cost under a SweepRunner). */
inline double
threadCpuSeconds()
{
#ifdef RUSAGE_THREAD
    struct rusage ru;
    if (getrusage(RUSAGE_THREAD, &ru) != 0)
        return 0.0;
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
    return processCpuSeconds();
#endif
}

/** One measured run: wall clock beside steal-immune CPU time. */
struct TimedRun
{
    double wallSec = 0;
    double cpuSec = 0; ///< Process CPU (all lanes), RUSAGE_SELF.
};

/** Time one invocation of @p fn. */
template <typename Fn>
TimedRun
timeRun(Fn &&fn)
{
    TimedRun r;
    double cpu0 = processCpuSeconds();
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.cpuSec = processCpuSeconds() - cpu0;
    return r;
}

/** Median of @p v (averages the middle pair for even sizes). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/**
 * Run @p fn @p n times and return the medians of the wall and CPU
 * samples (taken independently: the median wall sample and the median
 * CPU sample need not come from the same repeat). This is the
 * noise-hardened protocol every BENCH_*.json timing entry quotes.
 */
template <typename Fn>
TimedRun
medianOfRuns(unsigned n, Fn &&fn)
{
    std::vector<double> wall, cpu;
    wall.reserve(n);
    cpu.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        TimedRun r = timeRun(fn);
        wall.push_back(r.wallSec);
        cpu.push_back(r.cpuSec);
    }
    return {median(std::move(wall)), median(std::move(cpu))};
}

} // namespace hwdp::bench

#endif // HWDP_BENCH_HOST_TIMING_HH
