#include "sim/sim_object.hh"

namespace hwdp::sim {

SimObject::SimObject(std::string name, EventQueue &eq)
    : eq(eq), _name(name), _stats(name, &eq.statRegistry())
{
}

SimObject::~SimObject() = default;

} // namespace hwdp::sim
