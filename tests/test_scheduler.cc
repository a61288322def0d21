/**
 * @file
 * Tests for the per-core scheduler: dispatch, block/wake, kernel-work
 * preemption, context-switch charging and SMT width sharing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/branch_predictor.hh"
#include "mem/cache_hierarchy.hh"
#include "os/scheduler.hh"
#include "sim/logging.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

struct Harness
{
    sim::EventQueue eq;
    mem::CacheHierarchy caches{2, mem::CacheParams{}};
    std::vector<mem::BranchPredictor> bps{2};
    KernelExec kexec{caches, bps, sim::Rng(1)};
    Scheduler sched{eq, 4, 2, kexec};
};

/** A thread that runs a scripted sequence of actions. */
class ScriptThread : public Thread
{
  public:
    using Action = std::function<void(ScriptThread &)>;

    ScriptThread(std::string name, unsigned core, Scheduler &s,
                 std::vector<Action> script)
        : Thread(std::move(name), core), sched(s),
          script(std::move(script))
    {
    }

    void
    run() override
    {
        if (hasResumeAction()) {
            takeResumeAction()();
            return;
        }
        step();
    }

    void
    step()
    {
        if (next >= script.size()) {
            sched.finish(this);
            return;
        }
        script[next++](*this);
    }

    Scheduler &sched;
    std::vector<Action> script;
    std::size_t next = 0;
    std::vector<Tick> trace;
};

} // namespace

TEST(Scheduler, RunsThreadToCompletion)
{
    Harness h;
    bool ran = false;
    ScriptThread t("t", 0, h.sched,
                   {[&](ScriptThread &self) {
                       ran = true;
                       self.sched.finish(&self);
                   }});
    h.sched.addThread(&t);
    h.sched.start();
    h.eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(t.state(), Thread::State::finished);
}

TEST(Scheduler, DispatchChargesSwitchIn)
{
    Harness h;
    ScriptThread t("t", 0, h.sched,
                   {[](ScriptThread &self) {
                       // The switch-in must have advanced time.
                       EXPECT_GT(self.sched.eventQueue().now(), 0u);
                       self.sched.finish(&self);
                   }});
    h.sched.addThread(&t);
    h.sched.start();
    h.eq.run();
    EXPECT_GE(h.sched.contextSwitches(), 1u);
}

TEST(Scheduler, BlockAndWakeResumesThread)
{
    Harness h;
    int phase = 0;
    ScriptThread t("t", 0, h.sched,
                   {[&](ScriptThread &self) {
                        phase = 1;
                        self.sched.block(&self);
                    },
                    [&](ScriptThread &self) {
                        phase = 2;
                        self.sched.finish(&self);
                    }});
    h.sched.addThread(&t);
    h.sched.start();
    h.eq.post(microseconds(50.0), [&] {
        EXPECT_EQ(phase, 1);
        EXPECT_EQ(t.state(), Thread::State::blocked);
        h.sched.wake(&t);
    });
    h.eq.run();
    EXPECT_EQ(phase, 2);
}

TEST(Scheduler, WakeOfRunnableIsIgnored)
{
    Harness h;
    ScriptThread t("t", 0, h.sched,
                   {[](ScriptThread &self) { self.sched.finish(&self); }});
    h.sched.addThread(&t);
    h.sched.wake(&t); // already runnable: no-op, no crash
    h.sched.start();
    h.eq.run();
    EXPECT_EQ(t.state(), Thread::State::finished);
}

TEST(Scheduler, TwoThreadsShareACore)
{
    Harness h;
    std::vector<std::string> order;
    auto mk = [&](const char *name) {
        return std::vector<ScriptThread::Action>{
            [&order, name](ScriptThread &self) {
                order.push_back(name);
                self.sched.yield(&self);
            },
            [&order, name](ScriptThread &self) {
                order.push_back(name);
                self.sched.finish(&self);
            }};
    };
    ScriptThread a("a", 0, h.sched, mk("a"));
    ScriptThread b("b", 0, h.sched, mk("b"));
    h.sched.addThread(&a);
    h.sched.addThread(&b);
    h.sched.start();
    h.eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Scheduler, KernelWorkRunsOnIdleCore)
{
    Harness h;
    bool done = false;
    h.sched.start();
    h.sched.queueKernelWork(1, {&phases::irqDeliver},
                            [&] { done = true; });
    h.eq.run();
    EXPECT_TRUE(done);
}

TEST(Scheduler, KernelWorkChargesPhaseTime)
{
    Harness h;
    Tick when = 0;
    h.sched.start();
    h.sched.queueKernelWork(0, {&phases::irqDeliver, &phases::ioComplete},
                            [&] { when = h.eq.now(); });
    h.eq.run();
    Tick expected = (phases::irqDeliver.cycles +
                     phases::ioComplete.cycles) * cyclePeriod;
    EXPECT_EQ(when, expected);
}

TEST(Scheduler, PreemptForKernelWorkResumesWithoutSwitchCharge)
{
    Harness h;
    std::vector<int> order;
    ScriptThread t("t", 0, h.sched,
                   {[&](ScriptThread &self) {
                        order.push_back(1);
                        // Interrupt work arrives now; yield to it.
                        self.sched.queueKernelWork(
                            0, {&phases::irqDeliver},
                            [&] { order.push_back(2); });
                        self.setResumeAction([&self] { self.step(); });
                        self.sched.preemptForKernelWork(&self);
                    },
                    [&](ScriptThread &self) {
                        order.push_back(3);
                        self.sched.finish(&self);
                    }});
    h.sched.addThread(&t);
    h.sched.start();
    // start() already charged the thread's initial switch-in.
    auto switches_before_run = h.sched.contextSwitches();
    h.eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    // The irq preemption/resume cycle charges no further switches.
    EXPECT_EQ(h.sched.contextSwitches(), switches_before_run);
}

TEST(Scheduler, WidthShareReflectsSiblingActivity)
{
    Harness h; // 4 logical / 2 physical: sibling of 0 is 2
    h.sched.start();
    EXPECT_DOUBLE_EQ(h.sched.widthShare(0), 1.0); // sibling idle

    ScriptThread t("t", 2, h.sched,
                   {[&](ScriptThread &self) {
                       // While this runs on core 2, core 0 shares.
                       EXPECT_DOUBLE_EQ(self.sched.widthShare(0), 0.6);
                       // A hardware-stalled sibling frees the width.
                       self.sched.setHwStalled(2, true);
                       EXPECT_DOUBLE_EQ(self.sched.widthShare(0), 1.0);
                       self.sched.setHwStalled(2, false);
                       self.sched.finish(&self);
                   }});
    h.sched.addThread(&t);
    h.eq.run();
    EXPECT_DOUBLE_EQ(h.sched.widthShare(0), 1.0);
}

TEST(Scheduler, PhysCoreTopology)
{
    Harness h;
    EXPECT_EQ(h.sched.physCoreOf(0), 0u);
    EXPECT_EQ(h.sched.physCoreOf(2), 0u);
    EXPECT_EQ(h.sched.siblingOf(0), 2u);
    EXPECT_EQ(h.sched.siblingOf(2), 0u);
    EXPECT_EQ(h.sched.siblingOf(1), 3u);
}

TEST(Scheduler, RunPhasesSequencesDurations)
{
    Harness h;
    h.sched.start();
    Tick when = 0;
    h.sched.runPhases(0, {&phases::exceptionEntry, &phases::vmaLookup},
                      [&] { when = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(when, (phases::exceptionEntry.cycles +
                     phases::vmaLookup.cycles) * cyclePeriod);
}

TEST(Scheduler, BadTopologyRejected)
{
    Harness h;
    EXPECT_THROW(Scheduler(h.eq, 0, 0, h.kexec), FatalError);
    EXPECT_THROW(Scheduler(h.eq, 2, 4, h.kexec), FatalError);
    EXPECT_THROW(Scheduler(h.eq, 3, 2, h.kexec), FatalError);
}

TEST(Scheduler, DoubleAddPanics)
{
    Harness h;
    ScriptThread t("t", 0, h.sched, {});
    h.sched.addThread(&t);
    EXPECT_THROW(h.sched.addThread(&t), PanicError);
}

TEST(Scheduler, BlockOfNonCurrentPanics)
{
    Harness h;
    ScriptThread t("t", 0, h.sched, {});
    EXPECT_THROW(h.sched.block(&t), PanicError);
}
