/**
 * @file
 * Thread scheduling and per-core kernel work execution.
 *
 * Logical cores run at most one thread at a time, selected from a
 * per-core FIFO run queue (workloads pin threads to cores, as the
 * paper's evaluation does). Kernel work items — interrupt handling
 * and completion processing — preempt threads at operation boundaries.
 * Context switches are charged by the scheduler itself, so the OSDP
 * fault path pays switch-out when it blocks and switch-in when the
 * woken thread is redispatched, the way Figure 3 measures them.
 *
 * SMT: logical core l and its sibling share physical core l % nPhys.
 * The width-share query models issue-slot competition: a sibling that
 * is stalled on a hardware-handled page miss (HWDP pipeline stall)
 * consumes no slots, which is the effect Figure 16 measures.
 */

#ifndef HWDP_OS_SCHEDULER_HH
#define HWDP_OS_SCHEDULER_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "os/kernel_phases.hh"
#include "sim/sim_object.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

class Scheduler;

/** A schedulable entity (workload thread or kernel thread). */
class Thread
{
  public:
    enum class State { created, runnable, running, blocked, finished };

    Thread(std::string name, unsigned core)
        : nm(std::move(name)), coreIdx(core)
    {
    }
    virtual ~Thread() = default;

    /**
     * Called when the scheduler gives this thread the CPU. The
     * implementation drives its own events and must eventually call
     * Scheduler::block/yield/finish (or preemptForKernelWork).
     */
    virtual void run() = 0;

    const std::string &name() const { return nm; }
    unsigned core() const { return coreIdx; }
    State state() const { return st; }

    /**
     * Install a continuation to run on the next dispatch (the fault
     * handler uses this for the fault-return phases that execute in
     * the woken thread's context).
     */
    void setResumeAction(std::function<void()> fn)
    {
        resumeAction = std::move(fn);
    }

    bool hasResumeAction() const { return resumeAction != nullptr; }

    /**
     * The kernel could not allocate memory for this thread's fault
     * even after exhaustive reclaim. Return true to absorb the kill
     * (the thread terminates gracefully, OOM-killer style); false
     * means the thread cannot die here and the kernel panics —
     * kthreads and anonymous test threads keep that behaviour.
     */
    virtual bool handleOom() { return false; }

    /**
     * Checkpoint the scheduling state. Only valid at quiesce, when
     * the thread is blocked or finished (never running/runnable with
     * a pending dispatch) and carries no resume action.
     */
    void serializeState(sim::Serializer &s);

  protected:
    std::function<void()>
    takeResumeAction()
    {
        auto f = std::move(resumeAction);
        resumeAction = nullptr;
        return f;
    }

  private:
    friend class Scheduler;
    std::string nm;
    unsigned coreIdx;
    State st = State::created;
    std::function<void()> resumeAction;
};

class Scheduler : public sim::SimObject
{
  public:
    /**
     * @param n_logical       Logical cores.
     * @param n_physical      Physical cores (logical siblings share).
     * @param kexec           Phase executor for switch/kernel costs.
     * @param smt_share       Per-thread issue share when both SMT
     *                        siblings actively execute.
     */
    Scheduler(sim::EventQueue &eq, unsigned n_logical, unsigned n_physical,
              KernelExec &kexec, double smt_share = 0.6);

    unsigned numLogical() const { return nLogical; }
    unsigned physCoreOf(unsigned logical) const { return logical % nPhys; }
    unsigned siblingOf(unsigned logical) const
    {
        return (logical + nPhys) % nLogical;
    }

    /** Register a thread on its pinned core (created -> runnable). */
    void addThread(Thread *t);

    /** Dispatch every core once the machine is built. */
    void start();

    // ---- Calls made by the currently running thread ------------------
    /** Give up the CPU and wait for wake(); charges switch-out. */
    void block(Thread *t);

    /** Requeue and let others (incl. kernel work) run. */
    void yield(Thread *t);

    /** Terminate the thread. */
    void finish(Thread *t);

    /**
     * Give way to pending kernel work without a full context switch
     * (interrupts borrow the current context). The thread is requeued
     * at the front and resumed free of switch charge.
     */
    void preemptForKernelWork(Thread *t);

    // ---- Calls made by kernel paths -----------------------------------
    /** Make a blocked thread runnable and kick its core. */
    void wake(Thread *t);

    /**
     * Queue interrupt/softirq work on @p core: the phases run (with
     * pollution and accounting), then @p done fires, then the core is
     * redispatched.
     */
    void queueKernelWork(unsigned core,
                         std::vector<const KernelPhase *> phases,
                         std::function<void()> done);

    bool kernelWorkPending(unsigned core) const;

    /**
     * Run a phase sequence inline (in the current thread's context) on
     * @p core, then call @p done. Used by the fault handler for the
     * phases that execute before blocking / after resuming.
     */
    void runPhases(unsigned core, std::vector<const KernelPhase *> phases,
                   std::function<void()> done);

    // ---- State queries -------------------------------------------------
    Thread *current(unsigned core) const { return cores[core].cur; }

    /** Mark/unmark an HWDP pipeline stall on @p core (SMT modelling). */
    void setHwStalled(unsigned core, bool stalled);

    /**
     * Fraction of the physical core's issue slots available to a
     * thread on @p core right now (Figure 16's mechanism).
     */
    double widthShare(unsigned core) const;

    std::uint64_t contextSwitches() const { return statSwitches.value(); }

    KernelExec &kernelExec() { return kexec; }

    /**
     * Checkpoint the per-core state and switch counters. Only valid
     * at quiesce: every core idle, run queues and kernel-work queues
     * empty on the save side. On load the fresh-boot run queues
     * (never-started threads) are discarded; the threads themselves
     * restore their states via serializeState().
     */
    void serialize(sim::Serializer &s);

  private:
    struct KernelWork
    {
        std::vector<const KernelPhase *> phases;
        std::function<void()> done;
    };

    struct CoreState
    {
        Thread *cur = nullptr;
        std::deque<Thread *> runq;
        std::deque<KernelWork> kwork;
        bool inKernelWork = false;
        bool hwStall = false;
        Thread *skipSwitchCharge = nullptr;
        bool started = false;
    };

    unsigned nLogical;
    unsigned nPhys;
    KernelExec &kexec;
    double smtShare;
    std::vector<CoreState> cores;

    sim::Counter statSwitches;
    sim::Counter statKernelWorkItems;

    void dispatch(unsigned core);
    void runKernelWorkItem(unsigned core);
    void runPhaseSeq(unsigned core,
                     std::vector<const KernelPhase *> phases,
                     std::size_t idx, std::function<void()> done);
};

} // namespace hwdp::os

#endif // HWDP_OS_SCHEDULER_HH
