/**
 * @file
 * HostProbe: a fixed yardstick for how fast the host runs right now.
 *
 * The reference host is a VM whose physical cores and last-level cache
 * are shared with other tenants. When they are busy, the simulator's
 * cache-bound code runs up to 1.7x slower for seconds to minutes at a
 * time, in CPU time as well as wall time, so a median over a run's
 * rounds still moves with the host. The probe is a dependent random
 * walk over a 4 MiB table with a few multiplies per hop: larger than
 * one core's L2, so its speed falls with the cache share and core time
 * the host leaves the process. A round runs it just before and just
 * after its measured phase; its slowdown is the probe's time per hop
 * over referenceNsPerHop.
 *
 * The probe reacts more than the simulator: across rounds on the
 * reference host, the workloads' CPU time grew as the slowdown to the
 * power 0.5-0.9. A round therefore divides its host times by the
 * slowdown to the power `sensitivity`, the value that kept the spread
 * of ten runs lowest across all five workloads.
 *
 * The probe is compiled on its own (see CMakeLists.txt) so that no
 * change to the simulator or its build flags changes the yardstick.
 */

#ifndef HWDP_BENCH_SUITE_PROBE_HH
#define HWDP_BENCH_SUITE_PROBE_HH

#include <cstdint>
#include <vector>

namespace hwdp::suite {

class HostProbe
{
  public:
    /** Probe speed on the reference host when it is quiet. */
    static constexpr double referenceNsPerHop = 56.0;

    /** Exponent of the slowdown that host times are divided by. */
    static constexpr double sensitivity = 0.8;

    /** Allocates and fills the table (4 MiB resident from here on). */
    HostProbe();

    /** Walk a fixed number of hops; returns process CPU ns per hop. */
    double nsPerHop();

  private:
    std::vector<std::uint32_t> table;
    std::uint32_t pos = 0;
    std::uint64_t mix = 1;
};

} // namespace hwdp::suite

#endif // HWDP_BENCH_SUITE_PROBE_HH
