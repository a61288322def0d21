/**
 * @file
 * Tests for the kernel phase model and its calibration invariants
 * against the paper's Figure 3 / Figure 11 decomposition.
 */

#include <gtest/gtest.h>

#include "mem/branch_predictor.hh"
#include "mem/cache_hierarchy.hh"
#include "os/kernel_phases.hh"
#include "sim/logging.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

struct Harness
{
    mem::CacheHierarchy caches{1, mem::CacheParams{}};
    std::vector<mem::BranchPredictor> bps{1};
    KernelExec kexec{caches, bps, sim::Rng(2)};
};

constexpr double cyclesToUs = cyclePeriod / 1e6;

} // namespace

TEST(KernelPhases, BeforeDevicePortionMatchesPaper)
{
    // Paper (Figure 11a): OSDP spends ~2.4 us before the device I/O.
    double us = (phases::exceptionEntry.cycles + phases::vmaLookup.cycles +
                 phases::pageAlloc.cycles + phases::ioSubmit.cycles) *
                cyclesToUs;
    EXPECT_GT(us, 1.8);
    EXPECT_LT(us, 2.8);
}

TEST(KernelPhases, AfterDevicePortionMatchesPaper)
{
    // Paper (Figure 11a): ~6.2 us after the device I/O.
    double us = (phases::irqDeliver.cycles + phases::ioComplete.cycles +
                 phases::wakeupSched.cycles + phases::contextSwitch.cycles +
                 phases::metadataUpdate.cycles +
                 phases::pteUpdateReturn.cycles) *
                cyclesToUs;
    EXPECT_GT(us, 5.4);
    EXPECT_LT(us, 7.0);
}

TEST(KernelPhases, TotalOverheadNearPaperFraction)
{
    // Paper (Figure 3): critical-path kernel work is ~76.3% of the
    // 10.9 us device time.
    double total =
        (phases::exceptionEntry.cycles + phases::vmaLookup.cycles +
         phases::pageAlloc.cycles + phases::ioSubmit.cycles +
         phases::irqDeliver.cycles + phases::ioComplete.cycles +
         phases::wakeupSched.cycles + phases::contextSwitch.cycles +
         phases::metadataUpdate.cycles + phases::pteUpdateReturn.cycles) *
        cyclesToUs;
    double frac = total / 10.9;
    EXPECT_GT(frac, 0.68);
    EXPECT_LT(frac, 0.85);
}

TEST(KernelPhases, IoSubmitFractionMatchesPaper)
{
    // Paper: I/O submission is 9.85% of device time.
    double frac = phases::ioSubmit.cycles * cyclesToUs / 10.9;
    EXPECT_NEAR(frac, 0.0985, 0.02);
}

TEST(KernelPhases, ContextSwitchFractionMatchesPaper)
{
    double frac = phases::contextSwitch.cycles * cyclesToUs / 10.9;
    EXPECT_NEAR(frac, 0.0985, 0.02);
}

TEST(KernelPhases, CompletionFractionMatchesPaper)
{
    // Paper: I/O completion is 20.6% of device time.
    double frac = phases::ioComplete.cycles * cyclesToUs / 10.9;
    EXPECT_NEAR(frac, 0.206, 0.04);
}

TEST(KernelPhases, RunChargesTimeAndAccounting)
{
    Harness h;
    Tick d = h.kexec.run(0, phases::ioSubmit);
    EXPECT_EQ(d, phases::ioSubmit.cycles * cyclePeriod);
    EXPECT_EQ(h.kexec.instructions(KernelCostCat::ioStack),
              phases::ioSubmit.instructions);
    EXPECT_EQ(h.kexec.cycles(KernelCostCat::ioStack),
              phases::ioSubmit.cycles);
}

TEST(KernelPhases, RunBatchScalesLinearly)
{
    Harness h;
    Tick d = h.kexec.runBatch(0, phases::kptedPerPage, 10);
    EXPECT_EQ(d, phases::kptedPerPage.cycles * 10 * cyclePeriod);
    EXPECT_EQ(h.kexec.instructions(KernelCostCat::kpted),
              phases::kptedPerPage.instructions * 10);
}

TEST(KernelPhases, PollutionTouchesKernelModeCaches)
{
    Harness h;
    h.kexec.run(0, phases::ioComplete);
    auto &k = h.caches.counters(ExecMode::kernel);
    EXPECT_GT(k.l1iAccesses, 0u);
    EXPECT_GT(k.l1dAccesses, 0u);
    EXPECT_GT(h.bps[0].lookups(ExecMode::kernel), 0u);
    // User counters untouched.
    EXPECT_EQ(h.caches.counters(ExecMode::user).l1dAccesses, 0u);
}

TEST(KernelPhases, ResetAccountingZeroes)
{
    Harness h;
    h.kexec.run(0, phases::ioSubmit);
    h.kexec.resetAccounting();
    EXPECT_EQ(h.kexec.totalInstructions(), 0u);
    EXPECT_EQ(h.kexec.totalCycles(), 0u);
}

TEST(KernelPhases, CategoryNamesAreStable)
{
    EXPECT_STREQ(kernelCostCatName(KernelCostCat::kpted), "kpted");
    EXPECT_STREQ(kernelCostCatName(KernelCostCat::kpoold), "kpoold");
    EXPECT_STREQ(kernelCostCatName(KernelCostCat::ioStack), "io_stack");
}

TEST(KernelPhases, SwSmuOverheadNearTwoMicroseconds)
{
    // Figure 17 calibration: the software-emulated SMU adds ~2 us of
    // kernel work per fault on top of the device time.
    double us = (phases::exceptionEntry.cycles + phases::swSmuSubmit.cycles +
                 phases::swSmuWake.cycles + phases::swSmuComplete.cycles) *
                cyclesToUs;
    EXPECT_GT(us, 1.6);
    EXPECT_LT(us, 2.6);
}
