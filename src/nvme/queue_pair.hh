/**
 * @file
 * Host-memory model of one NVMe submission/completion queue pair.
 *
 * The rings live "in host memory": the host produces SQ entries and
 * advances the tail, the device consumes them and advances the head;
 * the device produces CQ entries with a phase tag and the host (or the
 * SMU's snooping completion unit) consumes them. Doorbell writes are
 * modelled by the SSD device; this class is pure ring bookkeeping so
 * both the kernel block layer and the SMU host controller can share it.
 */

#ifndef HWDP_NVME_QUEUE_PAIR_HH
#define HWDP_NVME_QUEUE_PAIR_HH

#include <cstdint>
#include <vector>

#include "nvme/nvme_types.hh"

namespace hwdp::sim { class Serializer; }

namespace hwdp::nvme {

class QueuePair
{
  public:
    /**
     * @param qid        Queue id (0 is reserved for admin by the spec;
     *                   the simulator only creates I/O queues, qid>=1).
     * @param depth      Entries per ring (up to 64 Ki per the spec).
     * @param sq_base    Simulated physical address of the SQ ring.
     * @param cq_base    Simulated physical address of the CQ ring.
     * @param priority   Arbitration class.
     */
    QueuePair(std::uint16_t qid, std::uint16_t depth, PAddr sq_base,
              PAddr cq_base, Priority priority = Priority::medium);

    std::uint16_t qid() const { return id; }
    std::uint16_t depth() const { return nEntries; }
    Priority priority() const { return prio; }

    /** Host-memory address the next CQ entry will be written to. */
    PAddr cqHeadAddr() const;

    // --- Host (producer) side of the SQ -------------------------------
    bool sqFull() const;
    std::uint16_t sqOccupancy() const;

    /**
     * Write one entry at the tail and advance it.
     * @return false when the ring is full (entry not queued).
     */
    bool pushSqe(const SubmissionEntry &sqe);

    // --- Device (consumer) side of the SQ -----------------------------
    bool sqEmpty() const;

    /** Consume the entry at the head. @pre !sqEmpty() */
    SubmissionEntry popSqe();

    // --- Device (producer) side of the CQ -----------------------------
    bool cqFull() const;

    /**
     * Write a completion at the CQ tail with the correct phase tag.
     * @return false when the CQ is full.
     */
    bool pushCqe(CompletionEntry cqe);

    // --- Host (consumer) side of the CQ -------------------------------
    /**
     * True when the entry at the host's CQ head has a fresh phase tag,
     * i.e. a completion is waiting.
     */
    bool cqHasWork() const;

    /** Consume the completion at the CQ head. @pre cqHasWork() */
    CompletionEntry popCqe();

    /**
     * Checkpoint the ring positions and phase tags. Both rings must be
     * drained (quiesced) — the entries themselves are never saved
     * because consumed slots are dead; only the head/tail/phase state
     * determines future behaviour.
     */
    void serialize(sim::Serializer &s);

  private:
    std::uint16_t id;
    std::uint16_t nEntries;
    PAddr sqBaseAddr;
    PAddr cqBaseAddr;
    Priority prio;

    std::vector<SubmissionEntry> sqRing;
    std::vector<CompletionEntry> cqRing;
    std::vector<bool> cqValidPhase;

    std::uint16_t sqHead = 0;
    std::uint16_t sqTail = 0;
    std::uint16_t cqHead = 0;
    std::uint16_t cqTail = 0;
    bool cqPhase = true;      ///< Phase the device writes this lap.
    bool hostPhase = true;    ///< Phase the host expects this lap.
    std::uint16_t sqCount = 0;
    std::uint16_t cqCount = 0;
};

} // namespace hwdp::nvme

#endif // HWDP_NVME_QUEUE_PAIR_HH
