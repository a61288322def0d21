#include "os/scheduler.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

void
Thread::serializeState(sim::Serializer &s)
{
    if (s.saving()) {
        if (st == State::running || resumeAction)
            throw sim::SerializeError(
                "checkpoint: thread '" + nm +
                "' is mid-operation; quiesce the machine first");
    }
    s.io(st);
}

void
Scheduler::serialize(sim::Serializer &s)
{
    s.section("scheduler");
    std::uint32_t n = nLogical;
    s.check(n, "logical core count");
    for (unsigned c = 0; c < nLogical; ++c) {
        CoreState &cs = cores[c];
        if (s.saving() &&
            (cs.cur || !cs.runq.empty() || !cs.kwork.empty() ||
             cs.inKernelWork || cs.skipSwitchCharge))
            throw sim::SerializeError(
                "checkpoint: core " + std::to_string(c) +
                " is busy; quiesce the machine first");
        if (s.loading()) {
            // Discard the fresh-boot run queue: its threads were
            // registered by the boot recipe but never dispatched;
            // their states are restored by their own serializers.
            cs.cur = nullptr;
            cs.runq.clear();
            cs.kwork.clear();
            cs.inKernelWork = false;
            cs.skipSwitchCharge = nullptr;
        }
        s.io(cs.hwStall);
        s.io(cs.started);
    }
}

Scheduler::Scheduler(sim::EventQueue &eq, unsigned n_logical,
                     unsigned n_physical, KernelExec &kexec,
                     double smt_share)
    : sim::SimObject("sched", eq), nLogical(n_logical), nPhys(n_physical),
      kexec(kexec), smtShare(smt_share), cores(n_logical),
      statSwitches(stats(), "context_switches",
                   "thread context switches performed"),
      statKernelWorkItems(stats(), "kernel_work_items",
                          "irq/softirq work items executed")
{
    if (n_logical == 0 || n_physical == 0 || n_physical > n_logical)
        fatal("scheduler: bad core topology ", n_logical, "/", n_physical);
    if (n_logical % n_physical != 0)
        fatal("scheduler: logical cores must be a multiple of physical");
}

void
Scheduler::addThread(Thread *t)
{
    if (t->core() >= nLogical)
        fatal("thread '", t->name(), "' pinned to bad core ", t->core());
    if (t->st != Thread::State::created)
        panic("thread '", t->name(), "' added twice");
    t->st = Thread::State::runnable;
    cores[t->core()].runq.push_back(t);
    if (cores[t->core()].started)
        dispatch(t->core());
}

void
Scheduler::start()
{
    for (unsigned c = 0; c < nLogical; ++c) {
        cores[c].started = true;
        dispatch(c);
    }
}

void
Scheduler::setHwStalled(unsigned core, bool stalled)
{
    cores[core].hwStall = stalled;
}

double
Scheduler::widthShare(unsigned core) const
{
    if (nLogical == nPhys)
        return 1.0; // SMT disabled
    unsigned sib = siblingOf(core);
    const CoreState &ss = cores[sib];
    bool sib_consuming =
        ss.inKernelWork || (ss.cur != nullptr && !ss.hwStall);
    return sib_consuming ? smtShare : 1.0;
}

void
Scheduler::block(Thread *t)
{
    CoreState &cs = cores[t->core()];
    if (cs.cur != t)
        panic("block: thread '", t->name(), "' is not current");
    cs.cur = nullptr;
    t->st = Thread::State::blocked;

    // Switch-out: schedule() + __switch_to to the next thread or the
    // idle task. The Figure 3 "context switch" cost.
    ++statSwitches;
    unsigned core = t->core();
    Tick dur = kexec.run(physCoreOf(core), phases::contextSwitch);
    eq.postIn(dur, [this, core] { dispatch(core); },
                        "sched.switchout");
}

void
Scheduler::yield(Thread *t)
{
    CoreState &cs = cores[t->core()];
    if (cs.cur != t)
        panic("yield: thread '", t->name(), "' is not current");
    cs.cur = nullptr;
    t->st = Thread::State::runnable;
    cs.runq.push_back(t);
    dispatch(t->core());
}

void
Scheduler::finish(Thread *t)
{
    CoreState &cs = cores[t->core()];
    if (cs.cur != t)
        panic("finish: thread '", t->name(), "' is not current");
    cs.cur = nullptr;
    t->st = Thread::State::finished;
    dispatch(t->core());
}

void
Scheduler::preemptForKernelWork(Thread *t)
{
    CoreState &cs = cores[t->core()];
    if (cs.cur != t)
        panic("preempt: thread '", t->name(), "' is not current");
    cs.cur = nullptr;
    t->st = Thread::State::runnable;
    cs.runq.push_front(t);
    cs.skipSwitchCharge = t;
    dispatch(t->core());
}

void
Scheduler::wake(Thread *t)
{
    if (t->st != Thread::State::blocked) {
        // Spurious wakeups happen (e.g. an I/O completes after a
        // munmap barrier already woke the thread); they are benign.
        return;
    }
    t->st = Thread::State::runnable;
    cores[t->core()].runq.push_back(t);
    dispatch(t->core());
}

void
Scheduler::queueKernelWork(unsigned core,
                           std::vector<const KernelPhase *> phases,
                           std::function<void()> done)
{
    CoreState &cs = cores[core];
    cs.kwork.push_back(KernelWork{std::move(phases), std::move(done)});
    // An idle core picks the work up immediately; a busy one at its
    // next operation boundary (threads poll kernelWorkPending()).
    dispatch(core);
}

bool
Scheduler::kernelWorkPending(unsigned core) const
{
    return !cores[core].kwork.empty();
}

void
Scheduler::runPhases(unsigned core,
                     std::vector<const KernelPhase *> phases,
                     std::function<void()> done)
{
    runPhaseSeq(core, std::move(phases), 0, std::move(done));
}

void
Scheduler::runPhaseSeq(unsigned core,
                       std::vector<const KernelPhase *> phases,
                       std::size_t idx, std::function<void()> done)
{
    if (idx >= phases.size()) {
        done();
        return;
    }
    Tick dur = kexec.run(physCoreOf(core), *phases[idx]);
    // Kernel instructions compete for issue slots with the SMT
    // sibling just like user instructions do (Figure 16's OSDP side).
    dur = static_cast<Tick>(static_cast<double>(dur) /
                            widthShare(core));
    eq.postIn(dur,
                        [this, core, phases = std::move(phases), idx,
                         done = std::move(done)]() mutable {
                            runPhaseSeq(core, std::move(phases), idx + 1,
                                        std::move(done));
                        },
                        "sched.phase");
}

void
Scheduler::runKernelWorkItem(unsigned core)
{
    CoreState &cs = cores[core];
    KernelWork work = std::move(cs.kwork.front());
    cs.kwork.pop_front();
    ++statKernelWorkItems;
    cs.inKernelWork = true;
    runPhases(core, std::move(work.phases),
              [this, core, done = std::move(work.done)] {
                  if (done)
                      done();
                  cores[core].inKernelWork = false;
                  dispatch(core);
              });
}

void
Scheduler::dispatch(unsigned core)
{
    CoreState &cs = cores[core];
    if (!cs.started || cs.cur != nullptr || cs.inKernelWork)
        return;

    if (!cs.kwork.empty()) {
        runKernelWorkItem(core);
        return;
    }

    if (cs.runq.empty())
        return; // idle

    Thread *t = cs.runq.front();
    cs.runq.pop_front();
    t->st = Thread::State::running;
    cs.cur = t;

    if (cs.skipSwitchCharge == t) {
        // Resuming after an interrupt borrowed the context: no switch.
        cs.skipSwitchCharge = nullptr;
        t->run();
        return;
    }

    // Switch-in: scheduling the thread onto the CPU.
    ++statSwitches;
    Tick dur = kexec.run(physCoreOf(core), phases::contextSwitch);
    eq.postIn(dur,
                        [this, t, core] {
                            // The thread may have been torn down only
                            // via finish(); it is still current here.
                            if (cores[core].cur == t)
                                t->run();
                        },
                        "sched.switchin");
}

} // namespace hwdp::os
