/**
 * @file
 * Per-file page cache index.
 *
 * Maps (file id, page index) to the resident frame. In the HWDP
 * design the page cache is *eventually* updated by kpted for
 * hardware-handled misses; pages faulted by the SMU are therefore
 * invisible here until synchronised, which the tests assert.
 */

#ifndef HWDP_OS_PAGE_CACHE_HH
#define HWDP_OS_PAGE_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::os {

class File;

class PageCache
{
  public:
    /** @p reg: the machine's stat list (nullptr: on none). */
    explicit PageCache(sim::StatRegistry *reg = nullptr);

    /** Look up the frame caching (file, index); invalid when absent. */
    Pfn lookup(const File &file, std::uint64_t index) const;

    /** lookup() without counting it: audits must not move the stats. */
    Pfn peek(const File &file, std::uint64_t index) const;

    /** True when (file, index) is resident in the cache. */
    bool contains(const File &file, std::uint64_t index) const;

    /** Insert a mapping. @pre not already present. */
    void insert(const File &file, std::uint64_t index, Pfn pfn);

    /** Remove a mapping. @pre present. */
    void remove(const File &file, std::uint64_t index);

    std::uint64_t size() const { return map.size(); }

    /** True when no page of any file is resident. */
    bool empty() const { return map.empty(); }

    /**
     * Account @p n lookups that are certain misses without probing
     * the map — the bulk mmap-population sweep takes this when the
     * cache is empty. Leaves the lookup and hit counters exactly as
     * @p n individual missing lookup() calls would.
     */
    void noteMissRun(std::uint64_t n) const { statLookups += n; }

    std::uint64_t lookups() const { return statLookups.value(); }
    std::uint64_t hits() const { return statHits.value(); }

    static constexpr Pfn noFrame = ~Pfn(0);

    /**
     * Pre-size the hash table for @p n resident pages (the frame
     * count bounds occupancy), so the fault-storm insert stream never
     * pays a growth rehash. Host-side only: bucket count is an
     * implementation detail, never serialized or observable.
     */
    void reserve(std::uint64_t n) { map.reserve(n); }

    /**
     * Drop every mapping (a checkpoint restore refills the index from
     * the restored frames; the blob carries no page-cache section).
     */
    void clear() { map.clear(); }

  private:
    static std::uint64_t key(const File &file, std::uint64_t index);

    std::unordered_map<std::uint64_t, Pfn> map;
    sim::StatGroup grp;
    mutable sim::Counter statLookups;
    mutable sim::Counter statHits;
};

} // namespace hwdp::os

#endif // HWDP_OS_PAGE_CACHE_HH
