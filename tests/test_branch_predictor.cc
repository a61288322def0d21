/**
 * @file
 * Tests for the gshare branch predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/branch_predictor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace hwdp;
using namespace hwdp::mem;

namespace {

/** One branch through the batch API; true when predicted correctly. */
bool
step(BranchPredictor &bp, std::uint64_t pc, bool taken, ExecMode mode)
{
    const std::uint8_t t = taken;
    return bp.updateBatch(&pc, 1, &t, 1, mode) == 0;
}

} // namespace

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (!step(bp, 0x400000, true, ExecMode::user))
            ++wrong;
    }
    // Warmup only: the shifting history register visits ~14 fresh
    // pattern-table entries before saturating, each needing a couple
    // of updates to train.
    EXPECT_LE(wrong, 40);
    // Steady state: the trained branch never mispredicts again.
    int late_wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (!step(bp, 0x400000, true, ExecMode::user))
            ++late_wrong;
    }
    EXPECT_EQ(late_wrong, 0);
}

TEST(BranchPredictor, LearnsStronglyBiasedBranch)
{
    BranchPredictor bp;
    sim::Rng rng(5);
    std::uint64_t miss = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        bool taken = rng.chance(0.95);
        if (!step(bp, 0x400100, taken, ExecMode::user))
            ++miss;
    }
    // Should approach the 5% noise floor (some extra from history
    // aliasing).
    EXPECT_LT(static_cast<double>(miss) / n, 0.12);
}

TEST(BranchPredictor, RandomBranchIsUnpredictable)
{
    BranchPredictor bp;
    sim::Rng rng(9);
    std::uint64_t miss = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (!step(bp, 0x400200, rng.chance(0.5), ExecMode::user))
            ++miss;
    }
    EXPECT_NEAR(static_cast<double>(miss) / n, 0.5, 0.05);
}

TEST(BranchPredictor, ModesAreCountedSeparately)
{
    BranchPredictor bp;
    step(bp, 0x1, true, ExecMode::user);
    step(bp, 0x2, true, ExecMode::kernel);
    step(bp, 0x3, true, ExecMode::kernel);
    EXPECT_EQ(bp.lookups(ExecMode::user), 1u);
    EXPECT_EQ(bp.lookups(ExecMode::kernel), 2u);
}

TEST(BranchPredictor, KernelInterferenceHurtsUserAccuracy)
{
    // Train a user branch, then run a burst of random-outcome kernel
    // branches; the user branch must mispredict more right after.
    BranchPredictor bp;
    sim::Rng rng(13);
    auto run_user = [&](int n) {
        std::uint64_t miss = 0;
        for (int i = 0; i < n; ++i) {
            if (!step(bp, 0x400300 + (i % 16) * 16, true, ExecMode::user))
                ++miss;
        }
        return miss;
    };
    run_user(5000); // train
    std::uint64_t clean = run_user(2000);

    for (int i = 0; i < 5000; ++i) {
        step(bp, 0xffffffff80000000ULL + (i % 512) * 16, rng.chance(0.5),
             ExecMode::kernel);
    }
    std::uint64_t polluted = run_user(2000);
    EXPECT_GT(polluted, clean);
}

TEST(BranchPredictor, ResetClearsState)
{
    BranchPredictor bp;
    step(bp, 0x1, true, ExecMode::user);
    bp.reset();
    EXPECT_EQ(bp.lookups(ExecMode::user), 0u);
    EXPECT_EQ(bp.mispredicts(ExecMode::user), 0u);
}

TEST(BranchPredictor, RestoreRejectsCounterAboveThree)
{
    // updateBatch indexes its transition table by the counter, so a
    // blob carrying an out-of-range counter is refused on restore.
    BranchPredictor bp;
    sim::Serializer s = sim::Serializer::saver();
    bp.serialize(s);
    std::vector<std::uint8_t> blob = s.takeBlob();
    // A fresh table is 2^14 counters of 1, the blob's one such run.
    std::vector<std::uint8_t> fresh(std::size_t(1) << 14, 1);
    auto at = std::search(blob.begin(), blob.end(), fresh.begin(),
                          fresh.end());
    ASSERT_NE(at, blob.end());
    at[100] = 4;
    BranchPredictor restored;
    sim::Serializer l = sim::Serializer::loader(blob);
    EXPECT_THROW(restored.serialize(l), sim::SerializeError);
}

TEST(BranchPredictor, UnreasonableHistoryRejected)
{
    EXPECT_THROW(BranchPredictor(0), FatalError);
    EXPECT_THROW(BranchPredictor(30), FatalError);
}
