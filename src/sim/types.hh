/**
 * @file
 * Fundamental simulation types and time-unit helpers.
 *
 * The simulator models time in integer ticks of one picosecond, the
 * same convention gem5 uses. All latency parameters elsewhere in the
 * code are expressed with the helpers below so that the units are
 * visible at the point of use.
 */

#ifndef HWDP_SIM_TYPES_HH
#define HWDP_SIM_TYPES_HH

#include <cstdint>

namespace hwdp {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of CPU clock cycles (frequency-dependent). */
using Cycles = std::uint64_t;

/** Virtual address of a simulated process. */
using VAddr = std::uint64_t;

/** Physical (host DRAM) address in the simulated machine. */
using PAddr = std::uint64_t;

/** Logical block address on a simulated storage device. */
using Lba = std::uint64_t;

/** Physical frame number (PAddr >> pageShift). */
using Pfn = std::uint64_t;

/** The maximum representable tick; used as "never scheduled". */
inline constexpr Tick maxTick = ~Tick(0);

/**
 * Privilege mode of simulated execution. The paper's indirect-cost
 * analysis hinges on separating user-mode microarchitectural behaviour
 * from the kernel activity that pollutes it, so every cache and branch
 * predictor access is attributed to one of these.
 */
enum class ExecMode { user, kernel };

/** Page geometry: the design targets 4 KB pages (Section V). */
inline constexpr unsigned pageShift = 12;
inline constexpr std::uint64_t pageSize = 1ULL << pageShift;
inline constexpr std::uint64_t pageOffsetMask = pageSize - 1;

/**
 * Translation-reach mode (MachineConfig::pageMode). `off` keeps the
 * 4 KB-only machine byte-identical to its pre-huge-page behaviour.
 * The other modes grow reach without changing what the workloads see:
 *
 *  - thp:      2 MB transparent huge pages on the OS fault path (PMD
 *              leaves) when a naturally aligned 512-frame run is free.
 *  - napot:    SVNAPOT-style 64 KB contiguous-PTE ranges stamped on
 *              demand-paged 4 KB pages as they become OS-visible, so
 *              HWDP keeps its fault granularity but gains TLB reach.
 *  - coalesce: both of the above plus a Mosaic-style background
 *              kcoalesced pass that promotes 4 KB runs that happened
 *              to land contiguously, with demotion on reclaim/munmap.
 */
enum class PageMode : unsigned { off = 0, thp, napot, coalesce };

/** 64 KB NAPOT range: 16 contiguous, naturally aligned 4 KB pages. */
inline constexpr unsigned napotShift = 4;
inline constexpr std::uint64_t napotPages = 1ULL << napotShift;

/** 2 MB PMD leaf: 512 contiguous, naturally aligned 4 KB frames. */
inline constexpr unsigned pmdLeafShift = 9;
inline constexpr std::uint64_t pmdLeafPages = 1ULL << pmdLeafShift;

/** Cache-line geometry used by the tag-array models. */
inline constexpr unsigned lineShift = 6;
inline constexpr std::uint64_t lineSize = 1ULL << lineShift;

/** One picosecond is one tick. */
inline constexpr Tick tickPerPs = 1;

/**
 * The machine's one CPU clock, in ticks per cycle: the evaluation
 * machine's 2.8 GHz Xeon (Table II). Kernel phases, cache and walk
 * latencies, the SMU's Fig. 11b cycle costs and user compute all
 * convert cycles to time at this period.
 */
inline constexpr Tick cyclePeriod = 357;

/** Convert common time units to ticks. */
constexpr Tick
nanoseconds(double ns)
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

constexpr Tick
microseconds(double us)
{
    return static_cast<Tick>(us * 1000.0 * 1000.0 + 0.5);
}

constexpr Tick
milliseconds(double ms)
{
    return static_cast<Tick>(ms * 1000.0 * 1000.0 * 1000.0 + 0.5);
}

constexpr Tick
seconds(double s)
{
    return static_cast<Tick>(s * 1e12 + 0.5);
}

/** Convert ticks back to floating-point time units for reporting. */
constexpr double
toNanoseconds(Tick t)
{
    return static_cast<double>(t) / 1e3;
}

constexpr double
toMicroseconds(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / 1e12;
}

} // namespace hwdp

#endif // HWDP_SIM_TYPES_HH
