#include "cpu/core.hh"

namespace hwdp::cpu {

Core::Core(unsigned logical_id, sim::EventQueue &eq,
           mem::CacheHierarchy &caches, os::Kernel &kernel,
           Tick cycle_period, unsigned pwc_entries)
{
    mmuUnit = std::make_unique<Mmu>("mmu" + std::to_string(logical_id),
                                    eq, logical_id, caches, kernel,
                                    cycle_period, pwc_entries);
}

} // namespace hwdp::cpu
