#include "bench/suite/probe.hh"

#include <ctime>

namespace hwdp::suite {

namespace {

constexpr std::uint32_t tableWords = 1u << 20; // 4 MiB
constexpr int hopsPerCall = 400'000;
constexpr int multipliesPerHop = 4;

double
processCpuNs()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return double(t.tv_sec) * 1e9 + double(t.tv_nsec);
}

} // namespace

HostProbe::HostProbe() : table(tableWords)
{
    for (std::uint32_t i = 0; i < tableWords; ++i)
        table[i] = (i * 2654435761u) & (tableWords - 1);
}

double
HostProbe::nsPerHop()
{
    const double t0 = processCpuNs();
    std::uint32_t p = pos;
    std::uint64_t h = mix;
    // Each hop's address depends on the previous load and the multiplies
    // after it, so neither the core nor a prefetcher can run ahead.
    for (int i = 0; i < hopsPerCall; ++i) {
        h ^= table[p];
        for (int j = 0; j < multipliesPerHop; ++j)
            h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
        p = std::uint32_t(h) & (tableWords - 1);
    }
    pos = p;
    mix = h;
    return (processCpuNs() - t0) / hopsPerCall;
}

} // namespace hwdp::suite
