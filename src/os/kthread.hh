/**
 * @file
 * Periodic kernel thread base class.
 *
 * kpted, kpoold and the background reclaimer are periodic batch
 * workers: sleep for a period, wake, do one batch of work (charging
 * kernel phases), sleep again. Their cost shows up in Figure 15 and
 * their period is an explicit experiment parameter (Section VI-C),
 * so the base class exposes it.
 */

#ifndef HWDP_OS_KTHREAD_HH
#define HWDP_OS_KTHREAD_HH

#include <functional>

#include "os/scheduler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

class KThread : public Thread
{
  public:
    /**
     * @param period Sleep time between batches.
     */
    KThread(std::string name, unsigned core, Scheduler &sched,
            sim::EventQueue &eq, Tick period);

    void run() final;

    /**
     * Perform one batch; must eventually invoke @p done exactly once
     * (possibly asynchronously, e.g. after writeback I/O).
     */
    virtual void batch(std::function<void()> done) = 0;

    Tick period() const { return per; }

    /** Stop re-arming the wake timer (lets the simulation drain). */
    void stop() { stopped = true; }

    /** Force an immediate wakeup (e.g. SMU queue ran dry). */
    void kick();

    /**
     * Resume after a quiesce or a restore: clear the stop flag and
     * re-arm the wake timer. Both sides of a checkpoint call this so
     * the timer event lands at the same tick with the same sequence
     * number.
     */
    void restart();

    std::uint64_t batchesRun() const { return statBatches.value(); }

    /**
     * The kthread's stat group, named after it and on the machine's
     * list; subclasses register their counters here.
     */
    sim::StatGroup &stats() { return grp; }

    /**
     * Checkpoint the kthread state (quiesced: stopped, timer idle).
     * Subclasses call this from their own serialize().
     */
    void serialize(sim::Serializer &s);

  protected:
    Scheduler &sched;
    sim::EventQueue &eq;

  private:
    Tick per;
    bool due = false;
    bool stopped = false;
    bool timerArmed = false;
    sim::StatGroup grp;
    sim::Counter statBatches;

    void armTimer();
};

} // namespace hwdp::os

#endif // HWDP_OS_KTHREAD_HH
