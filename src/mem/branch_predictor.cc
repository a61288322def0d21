#include "mem/branch_predictor.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
BranchPredictor::serialize(sim::Serializer &s)
{
    s.section("branchpredictor");
    s.check(historyBits, "branch history bits");
    s.io(ghr);
    std::uint64_t n = pht.size();
    s.check(n, "pattern table size");
    s.ioRange(pht.begin(), pht.end());
    // updateBatch shifts its transition table by the counter value.
    if (s.loading() && std::any_of(pht.begin(), pht.end(),
                                   [](std::uint8_t c) { return c > 3; }))
        throw sim::SerializeError(
            "checkpoint: branch-predictor counter above 3");
    s.io(nLookups[0]);
    s.io(nLookups[1]);
    s.io(nMiss[0]);
    s.io(nMiss[1]);
}

BranchPredictor::BranchPredictor(unsigned history_bits)
    : historyBits(history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        fatal("branch predictor: unreasonable history length ",
              history_bits);
    historyMask = (1ULL << historyBits) - 1;
    pht.assign(std::size_t(1) << historyBits, 1); // weakly not-taken
}

namespace {

/**
 * The 2-bit counter transition as a 32-bit table of nibbles: nibble
 * (counter << 1 | taken) holds the next counter in bits 0-1 and, in
 * bit 2, whether the prediction (taken iff the counter is 2 or 3)
 * missed. Per counter, outcome not-taken then taken: 0 -> 0, 1
 * (missed); 1 -> 0, 2 (missed); 2 -> 1 (missed), 3; 3 -> 2 (missed),
 * 3.
 */
constexpr std::uint32_t counterStep = 0x36356050;

} // namespace

std::uint64_t
BranchPredictor::updateBatch(const std::uint64_t *pcs, std::size_t n_pcs,
                             const std::uint8_t *taken, std::size_t n,
                             ExecMode mode)
{
    // The GHR and the miss count live in locals and the per-mode
    // statistics are written once at the end. The PHT/GHR updates are
    // inherently serial (each index depends on the previous outcome),
    // so the loop keeps that chain short: the counter update and the
    // miss bit are one shift of a register-resident table (the outcome
    // is simulated coin-flip data, which a host branch would
    // mispredict), and the history shifts unmasked (the index mask
    // drops its high bits; it is masked once, on the way out).
    std::uint64_t g = ghr;
    std::uint64_t miss = 0;
    std::uint8_t *table = pht.data();
    const std::uint64_t mask = historyMask;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < n) {
        // Inner loop over one pass of the PC ring: no wrap check per
        // update (the common case never wraps — runs are at most one
        // ring long).
        std::size_t len = std::min(n - i, n_pcs - j);
        const std::uint64_t *pc = pcs + j;
        const std::uint8_t *t = taken + i;
        for (std::size_t k = 0; k < len; ++k) {
            const std::uint64_t idx = ((pc[k] >> 2) ^ g) & mask;
            const unsigned out = t[k] != 0;
            const unsigned step =
                counterStep >> ((table[idx] << 1 | out) << 2);
            table[idx] = static_cast<std::uint8_t>(step & 3);
            miss += step >> 2 & 1;
            g = g << 1 | out;
        }
        i += len;
        j += len;
        if (j == n_pcs)
            j = 0;
    }
    ghr = g & mask;
    auto m = static_cast<unsigned>(mode);
    nLookups[m] += n;
    nMiss[m] += miss;
    return miss;
}

std::uint64_t
BranchPredictor::lookups(ExecMode mode) const
{
    return nLookups[static_cast<unsigned>(mode)];
}

std::uint64_t
BranchPredictor::mispredicts(ExecMode mode) const
{
    return nMiss[static_cast<unsigned>(mode)];
}

void
BranchPredictor::reset()
{
    ghr = 0;
    std::fill(pht.begin(), pht.end(), 1);
    nLookups[0] = nLookups[1] = 0;
    nMiss[0] = nMiss[1] = 0;
}

} // namespace hwdp::mem
