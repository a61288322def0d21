/**
 * @file
 * Reference gshare for the predictor tests: one predict-then-train
 * step per call, spelled out as the textbook transition (no batch, no
 * transition table, history masked on every shift). serialize() writes
 * the production BranchPredictor's checkpoint layout, so a test can
 * compare the two predictors' whole state byte for byte.
 */

#ifndef HWDP_TESTS_REFERENCE_GSHARE_HH
#define HWDP_TESTS_REFERENCE_GSHARE_HH

#include <cstdint>
#include <vector>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace hwdp::testing {

class ReferenceGshare
{
  public:
    explicit ReferenceGshare(unsigned history_bits = 14)
        : historyBits(history_bits),
          historyMask((std::uint64_t(1) << history_bits) - 1),
          pht(std::size_t(1) << history_bits, 1) // weakly not-taken
    {
    }

    /**
     * Predict the branch at @p pc, then train on the actual outcome.
     * @return true when the prediction was correct.
     */
    bool
    predictAndUpdate(std::uint64_t pc, bool taken, ExecMode mode)
    {
        // XOR the branch address (sans byte offset) with the global
        // history register.
        std::uint8_t &ctr = pht[((pc >> 2) ^ ghr) & historyMask];
        const bool correct = (ctr >= 2) == taken;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        ghr = ((ghr << 1) | (taken ? 1 : 0)) & historyMask;

        auto m = static_cast<unsigned>(mode);
        ++nLookups[m];
        nMiss[m] += !correct;
        return correct;
    }

    /** BranchPredictor::serialize's layout. */
    void
    serialize(sim::Serializer &s)
    {
        s.section("branchpredictor");
        s.check(historyBits, "branch history bits");
        s.io(ghr);
        std::uint64_t n = pht.size();
        s.check(n, "pattern table size");
        s.ioRange(pht.begin(), pht.end());
        s.io(nLookups[0]);
        s.io(nLookups[1]);
        s.io(nMiss[0]);
        s.io(nMiss[1]);
    }

  private:
    unsigned historyBits;
    std::uint64_t historyMask;
    std::uint64_t ghr = 0;
    std::vector<std::uint8_t> pht; // 2-bit saturating counters
    std::uint64_t nLookups[2] = {0, 0};
    std::uint64_t nMiss[2] = {0, 0};
};

} // namespace hwdp::testing

#endif // HWDP_TESTS_REFERENCE_GSHARE_HH
