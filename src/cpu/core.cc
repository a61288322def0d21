#include "cpu/core.hh"

namespace hwdp::cpu {

Core::Core(unsigned logical_id, sim::EventQueue &eq,
           mem::CacheHierarchy &caches, os::Kernel &kernel)
{
    mmuUnit = std::make_unique<Mmu>("mmu" + std::to_string(logical_id),
                                    eq, logical_id, caches, kernel);
}

} // namespace hwdp::cpu
