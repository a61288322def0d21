/**
 * @file
 * Logical core: bundles the per-core translation machinery.
 *
 * A Core owns the MMU (TLB + walker + miss routing) for one logical
 * core and knows its SMT topology. Thread execution itself lives in
 * ThreadContext; scheduling in os::Scheduler. Keeping the core as an
 * explicit object gives the system builder one place to wire SMUs and
 * lets tests instantiate a single core in isolation.
 */

#ifndef HWDP_CPU_CORE_HH
#define HWDP_CPU_CORE_HH

#include <memory>

#include "cpu/mmu.hh"

namespace hwdp::cpu {

class Core
{
  public:
    Core(unsigned logical_id, sim::EventQueue &eq,
         mem::CacheHierarchy &caches, os::Kernel &kernel);

    Mmu &mmu() { return *mmuUnit; }
    const Mmu &mmu() const { return *mmuUnit; }

    /** Wire a socket's SMU into this core's walker path. */
    void attachSmu(unsigned sid, PageMissHandlerIface *smu)
    {
        mmuUnit->attachSmu(sid, smu);
    }

  private:
    std::unique_ptr<Mmu> mmuUnit;
};

} // namespace hwdp::cpu

#endif // HWDP_CPU_CORE_HH
