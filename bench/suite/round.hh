/**
 * @file
 * One round of one perf_suite workload, run in a fresh process.
 *
 * A round boots the workload's machine, runs its set-up (preload, warm
 * phase, checkpoint round trip), runs the measured phase to completion
 * and verifies the end state. Everything is timed from outside the
 * simulator: the round calls public APIs (System, Checkpoint,
 * EventQueue, testing::*) and reads public counters before and after
 * the measured phase. Host time is process CPU (getrusage) scaled by
 * the host's slowdown, which a HostProbe (probe.hh) measures just
 * before and just after the measured phase; spans carry wall-clock
 * start/end for the Chrome trace.
 */

#ifndef HWDP_BENCH_SUITE_ROUND_HH
#define HWDP_BENCH_SUITE_ROUND_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hwdp::suite {

/** The five workloads, in their canonical order. */
extern const std::vector<std::string> workloadNames;

struct RoundOptions
{
    std::string workload;
    std::uint64_t seed = 42;
    /** Op counts are divided by this (50 under --smoke). */
    unsigned scaleDiv = 1;
    /** Drive the measured phase in event slices and record them. */
    bool traced = false;
    /**
     * Audit the end state with testing::checkInvariants. The suite
     * audits the first round of each workload; later rounds must
     * reproduce its digest, which the deterministic simulation only
     * does from an identical end state.
     */
    bool checkInvariants = true;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    /**
     * Base of a ratio or percentile: what it is taken over ("tlb
     * lookups", "faulted ops") and how many there were. Empty for a
     * plain count or time.
     */
    std::string baseOf;
    std::uint64_t baseCount = 0;
};

struct Span
{
    std::string name;
    int parent = -1; ///< Index into RoundResult::spans; -1 for the root.
    double startUs = 0;
    double endUs = 0;
    /** Counter deltas as a JSON object body ("events": 65536, ...). */
    std::string args;
};

struct RoundResult
{
    std::vector<Metric> metrics;
    std::vector<Span> spans;
    /** Failed correctness checks; empty when the round is correct. */
    std::vector<std::string> failures;
    std::uint64_t requestedOps = 0;
    std::uint64_t completedOps = 0;
    /** FNV-1a of the stats dump and logical-state hash at the end. */
    std::uint64_t digest = 0;
};

/** Run one round in this process. Throws on a simulator error. */
RoundResult runRound(const RoundOptions &opt);

} // namespace hwdp::suite

#endif // HWDP_BENCH_SUITE_ROUND_HH
