/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject owns a StatGroup named after itself and keeps a pointer
 * to the machine's EventQueue so subclasses can schedule events and
 * read the current tick without global state. The group joins the
 * queue's stat registry, the machine's one list of groups.
 */

#ifndef HWDP_SIM_SIM_OBJECT_HH
#define HWDP_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {

class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    EventQueue &eventQueue() { return eq; }
    Tick now() const { return eq.now(); }

  protected:
    EventQueue &eq;

  private:
    std::string _name;
    StatGroup _stats;
};

} // namespace hwdp::sim

#endif // HWDP_SIM_SIM_OBJECT_HH
