/**
 * @file
 * Gshare branch predictor with a BTB-less interface.
 *
 * Kernel entries on every page fault execute thousands of kernel
 * branches, shifting the global history and retraining pattern-table
 * counters away from the user application's branches — one of the
 * "hidden costs" the paper attributes to OS-based demand paging. The
 * model keeps user/kernel accuracy separately so that cost is visible.
 */

#ifndef HWDP_MEM_BRANCH_PREDICTOR_HH
#define HWDP_MEM_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::mem {

class BranchPredictor
{
  public:
    /**
     * @param history_bits Global-history length; the pattern table has
     *                     2^history_bits two-bit counters.
     */
    explicit BranchPredictor(unsigned history_bits = 14);

    /**
     * Predict and then train @p n branches in order: branch i sits at
     * pc = pcs[i % n_pcs] and resolves taken iff taken[i] is non-zero.
     * Classic gshare: the pattern-table entry is (pc >> 2) XOR the
     * global history, a 2-bit saturating counter predicting taken at
     * 2 and above, and each outcome shifts into the history. Compute
     * bursts and the kernel-pollution phases each drive a whole run
     * per call; per-mode statistics are written once at the end.
     * @p n_pcs must cover the caller's wrap period (the kernel phases
     * repeat their PCs every 1024 branches).
     * @return the number of mispredicted branches in the batch.
     */
    std::uint64_t updateBatch(const std::uint64_t *pcs, std::size_t n_pcs,
                              const std::uint8_t *taken, std::size_t n,
                              ExecMode mode);

    std::uint64_t lookups(ExecMode mode) const;
    std::uint64_t mispredicts(ExecMode mode) const;

    /** Reset tables and counters. */
    void reset();

    /** Checkpoint the GHR, pattern table and per-mode counters. */
    void serialize(sim::Serializer &s);

  private:
    unsigned historyBits;
    std::uint64_t historyMask;
    std::uint64_t ghr = 0;
    std::vector<std::uint8_t> pht; // 2-bit saturating counters

    std::uint64_t nLookups[2] = {0, 0};
    std::uint64_t nMiss[2] = {0, 0};
};

} // namespace hwdp::mem

#endif // HWDP_MEM_BRANCH_PREDICTOR_HH
