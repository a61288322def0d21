/**
 * @file
 * The SMU free page queue.
 *
 * A single-producer / single-consumer circular queue in host memory
 * holding <PFN, DMA address> pairs (Section III-C). The producer is
 * the OS (kpoold or the fault-path refill); the consumer is the SMU's
 * free page fetcher. Because a naive consumer would expose a full
 * memory round trip per pop, the hardware eagerly prefetches a few
 * entries into an SMU-internal buffer during idle/device time; a pop
 * that hits the buffer is free, one that must touch memory pays the
 * round-trip latency.
 */

#ifndef HWDP_CORE_FREE_PAGE_QUEUE_HH
#define HWDP_CORE_FREE_PAGE_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::core {

class FreePageQueue
{
  public:
    /** The SMU-internal prefetch buffer's entries (Section III-C). */
    static constexpr unsigned prefetchEntries = 16;

    /**
     * @param capacity       Ring entries (the paper uses 4096).
     * @param prefetch_depth SMU-internal buffer entries.
     * @param reg            The machine's stat list (nullptr: on none).
     */
    FreePageQueue(std::uint64_t capacity,
                  unsigned prefetch_depth = prefetchEntries,
                  sim::StatRegistry *reg = nullptr,
                  std::string name = "fpq");

    // ---- Producer (OS) side ------------------------------------------
    /** @return false when the ring is full. */
    bool push(Pfn pfn);

    std::uint64_t freeSlots() const { return cap - ring.size(); }

    // ---- Consumer (SMU free page fetcher) side -------------------------
    struct PopResult
    {
        bool ok = false;
        Pfn pfn = 0;
        Tick latency = 0; ///< 0 on a prefetch-buffer hit.
    };

    /**
     * Pop one free page. Hits the prefetch buffer when possible;
     * otherwise reads the ring from memory at @p mem_round_trip.
     */
    PopResult pop(Tick mem_round_trip);

    /**
     * Top up the prefetch buffer from the ring (called by the SMU
     * during device I/O so the latency hides; costs nothing here).
     */
    void refillPrefetch();

    /** Disable the prefetch buffer (ablation). */
    void setPrefetchEnabled(bool on);

    bool empty() const { return ring.empty() && buffer.empty(); }
    std::uint64_t size() const { return ring.size() + buffer.size(); }
    std::uint64_t capacity() const { return cap; }
    unsigned prefetchDepth() const { return depth; }
    unsigned buffered() const
    {
        return static_cast<unsigned>(buffer.size());
    }

    std::uint64_t pops() const { return statPops.value(); }
    std::uint64_t bufferHits() const { return statBufferHits.value(); }
    std::uint64_t emptyPops() const { return statEmptyPops.value(); }

    /**
     * Fault injection: when the hook returns true a pop behaves as if
     * the queue were dry, regardless of its contents (the bounce path
     * the OS must survive, Section IV-D).
     */
    void setDryHook(std::function<bool()> fn) { dryHook = std::move(fn); }

    /** Visit every queued PFN (ring + prefetch buffer). */
    void forEachPfn(const std::function<void(Pfn)> &fn) const;

    /** Checkpoint ring and buffer contents. */
    void serialize(sim::Serializer &s);

  private:
    std::uint64_t cap;
    unsigned depth;
    bool prefetchOn = true;
    std::deque<Pfn> ring;      // host-memory ring contents
    std::deque<Pfn> buffer;    // SMU-internal prefetch buffer
    std::function<bool()> dryHook;

    sim::StatGroup grp;
    sim::Counter statPops;
    sim::Counter statBufferHits;
    sim::Counter statEmptyPops;
};

} // namespace hwdp::core

#endif // HWDP_CORE_FREE_PAGE_QUEUE_HH
