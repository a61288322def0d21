#include "os/kthread.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

void
KThread::serialize(sim::Serializer &s)
{
    if (s.saving() && timerArmed)
        throw sim::SerializeError(
            "checkpoint: kthread '" + name() +
            "' has an armed timer; quiesce (stop + drain) first");
    serializeState(s);
    s.check(per, "kthread period");
    s.io(due);
    s.io(stopped);
    if (s.loading())
        timerArmed = false;
}

void
KThread::restart()
{
    stopped = false;
    armTimer();
}

KThread::KThread(std::string name, unsigned core, Scheduler &sched,
                 sim::EventQueue &eq, Tick period)
    : Thread(std::move(name), core), sched(sched), eq(eq), per(period),
      grp(this->name(), &eq.statRegistry()),
      statBatches(grp, "batches", "batches run")
{
    if (period == 0)
        fatal("kthread '", this->name(), "': zero period");
}

void
KThread::armTimer()
{
    if (stopped || timerArmed)
        return;
    timerArmed = true;
    eq.postIn(per,
                        [this] {
                            timerArmed = false;
                            if (stopped)
                                return;
                            due = true;
                            sched.wake(this);
                        },
                        "kthread.timer");
}

void
KThread::kick()
{
    if (stopped)
        return;
    due = true;
    sched.wake(this);
}

void
KThread::run()
{
    if (!due || stopped) {
        // First dispatch (or a spurious one): go to sleep until the
        // timer fires.
        armTimer();
        sched.block(this);
        return;
    }
    due = false;
    ++statBatches;
    batch([this] {
        if (due && !stopped) {
            // Kicked while the batch ran (e.g. the SMU free-page queue
            // drained): run another batch right away.
            sched.yield(this);
            return;
        }
        armTimer();
        sched.block(this);
    });
}

} // namespace hwdp::os
