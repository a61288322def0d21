/**
 * @file
 * Page replacement: LRU lists and the reclaimer.
 *
 * Linux-flavoured two-list design: pages enter the inactive list;
 * referenced pages get a second chance onto the active list; when the
 * inactive list runs dry a batch of active pages is demoted (aging).
 * A background reclaimer thread (kswapd equivalent) keeps free memory
 * between watermarks so the steady-state working set can churn; the
 * fault path falls back to synchronous direct reclaim when allocation
 * fails outright. The paper's kpted inserts hardware-faulted pages
 * into these lists in batch (Section IV-C), and the one-second kpted
 * period is justified by the LRU rotation time — which this module
 * makes a measurable quantity.
 */

#ifndef HWDP_OS_RECLAIM_HH
#define HWDP_OS_RECLAIM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "os/kthread.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

class Kernel;
struct Page;

/**
 * The active and inactive lists, intrusive and indexed by PFN: each
 * frame has prev/next links and the id of the list it is on, each list
 * a head, tail and count. Membership, insertion and removal are O(1)
 * array operations, with no allocation per page.
 */
class LruLists
{
  public:
    /** Pre-size the links for @p frames PFNs; higher PFNs grow them. */
    explicit LruLists(std::uint64_t frames = 0);

    void insertInactive(Page &page);
    void insertActive(Page &page);

    /** Remove from whichever list holds the page. */
    void remove(Page &page);

    /**
     * Pop the next eviction candidate from the inactive tail,
     * demoting a batch of active pages first when inactive is empty.
     * Returns invalid when both lists are empty.
     */
    Pfn popCandidate();

    /** Second chance: requeue a referenced page onto the active list. */
    void secondChance(Page &page);

    std::uint64_t activeCount() const { return lists[activeList].count; }
    std::uint64_t inactiveCount() const
    {
        return lists[inactiveList].count;
    }
    std::uint64_t size() const { return activeCount() + inactiveCount(); }

    bool contains(Pfn pfn) const { return listOf(pfn) != noList; }
    bool isActive(Pfn pfn) const { return listOf(pfn) == activeList; }

    /**
     * Checkpoint both lists in order, per list the count and then the
     * PFNs most recent first (eviction order is logical state —
     * Figure 15 depends on it).
     */
    void serialize(sim::Serializer &s);

    static constexpr Pfn invalidPfn = ~Pfn(0);

    /** Active pages demoted per refill of the inactive list. */
    static constexpr std::uint64_t demoteBatch = 32;

  private:
    enum ListId : std::uint8_t { activeList, inactiveList, noList };

    /** End-of-list marker; PFNs index the links, so stay below it. */
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    struct Link
    {
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
        ListId list = noList;
    };

    struct List
    {
        std::uint32_t head = nil; // most recent
        std::uint32_t tail = nil; // oldest: evict / demote from here
        std::uint64_t count = 0;
    };

    std::vector<Link> links;
    std::array<List, 2> lists;

    ListId listOf(Pfn pfn) const
    {
        return pfn < links.size() ? links[pfn].list : noList;
    }

    void insert(Page &page, ListId id);
    /** Link @p pfn into list @p id after @p prev (nil: at the head). */
    void linkAfter(ListId id, Pfn pfn, std::uint32_t prev);
    void unlink(Pfn pfn);
};

class Reclaimer : public KThread
{
  public:
    /**
     * @param low_water  Free-frame count that triggers background
     *                   reclaim.
     * @param high_water Background reclaim target.
     */
    Reclaimer(Kernel &kernel, unsigned core, Tick period,
              std::uint64_t low_water, std::uint64_t high_water);

    void batch(std::function<void()> done) override;

    /**
     * Synchronous direct reclaim on the faulting path: frees up to
     * @p want frames (clean pages immediately; dirty ones via
     * writeback, which completes later). Charges reclaim phases on
     * @p core, then calls @p done.
     */
    void directReclaim(unsigned core, std::uint64_t want,
                       std::function<void()> done);

    LruLists &lru() { return lists; }

    std::uint64_t pagesEvicted() const { return statEvicted.value(); }
    std::uint64_t pagesWrittenBack() const { return statWriteback.value(); }
    std::uint64_t directReclaims() const { return statDirect.value(); }

    std::uint64_t lowWatermark() const { return lowWater; }
    std::uint64_t highWatermark() const { return highWater; }

    /** Checkpoint the LRU lists and kthread state. */
    void serialize(sim::Serializer &s);

  private:
    Kernel &kernel;
    LruLists lists;
    std::uint64_t lowWater;
    std::uint64_t highWater;

    sim::Counter statEvicted;
    sim::Counter statWriteback;
    sim::Counter statDirect;

    /**
     * Evict up to @p want pages, returning the number freed now
     * (dirty pages under writeback free later and do not count).
     * @param scanned Out: pages examined (for phase charging).
     */
    std::uint64_t shrink(unsigned core, std::uint64_t want,
                         std::uint64_t *scanned);

    /**
     * A 2 MB compound head reached the inactive tail. Clean file
     * units reclaim whole (one candidate frees 512 frames — the reach
     * payoff on the eviction side too); a dirty subpage or the
     * split-storm fault hook forces a demotion so the unit's pages
     * age out individually. Returns the frames freed now.
     */
    std::uint64_t reclaimHugeHead(Page &pg);
};

} // namespace hwdp::os

#endif // HWDP_OS_RECLAIM_HH
