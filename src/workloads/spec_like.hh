/**
 * @file
 * SPEC CPU 2017-like compute kernels for the SMT co-run experiment.
 *
 * Figure 16 co-schedules one CPU-bound thread with the I/O-bound FIO
 * thread on the two hardware threads of a physical core. What matters
 * for that experiment is diversity in issue-slot demand, cache
 * sensitivity and branch behaviour — six synthetic kernels span the
 * space from pointer-chasing (mcf-like) to dense compute (x264-like).
 */

#ifndef HWDP_WORKLOADS_SPEC_LIKE_HH
#define HWDP_WORKLOADS_SPEC_LIKE_HH

#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace hwdp::workloads {

class SpecLikeWorkload : public Workload
{
  public:
    /**
     * @param kernel One of kernelNames().
     * @param n_bursts Compute bursts to run (each ~5k instructions);
     *                 0 = unbounded.
     */
    SpecLikeWorkload(const std::string &kernel, std::uint64_t n_bursts);

    Op next(sim::Rng &rng) override;
    const char *label() const override { return name.c_str(); }

    static const std::vector<std::string> &kernelNames();

    void serialize(sim::Serializer &s) override;

  private:
    std::string name;
    std::uint64_t remaining;
    bool unbounded;
    ComputeSpec spec;
};

} // namespace hwdp::workloads

#endif // HWDP_WORKLOADS_SPEC_LIKE_HH
