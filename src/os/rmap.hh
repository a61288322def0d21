/**
 * @file
 * Reverse mapping: from a physical page back to the PTE mapping it.
 *
 * The design supports exactly one mapping per page (fork reverts
 * LBA-augmented PTEs, Section V), so the reverse map is a pair of
 * fields on struct Page plus the logic to tear a mapping down. On
 * eviction of a page belonging to a fast-mmap VMA the PTE is rewritten
 * as an LBA-augmented entry — the step that keeps hardware-handled
 * demand paging possible after page replacement (Section IV-B).
 */

#ifndef HWDP_OS_RMAP_HH
#define HWDP_OS_RMAP_HH

#include <functional>

#include "os/page.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hwdp::os {

class AddressSpace;
class File;

class Rmap
{
  public:
    /** Invoked after a PTE teardown to shoot down stale TLB entries. */
    using ShootdownFn = std::function<void(AddressSpace &, VAddr)>;

    /** @p reg: the machine's stat list (nullptr: on none). */
    explicit Rmap(ShootdownFn shootdown, sim::StatRegistry *reg = nullptr);

    /** Record that @p page is mapped at (@p as, @p vaddr). */
    void setMapping(Page &page, AddressSpace &as, VAddr vaddr);

    /** Forget the mapping without touching the PTE (munmap path). */
    void clearMapping(Page &page);

    /**
     * Unmap @p page from its address space for eviction: rewrites the
     * PTE (LBA-augmented for fast-mmap VMAs, empty otherwise), fires
     * the TLB shootdown, transfers the PTE dirty bit to the page and
     * clears the reverse mapping.
     *
     * @return true when the page was dirty (needs writeback).
     */
    bool unmapForEviction(Page &page);

    std::uint64_t evictionsToLba() const { return statLbaEvictions.value(); }
    std::uint64_t evictionsPlain() const
    {
        return statPlainEvictions.value();
    }

  private:
    ShootdownFn shootdown;
    sim::StatGroup grp;
    sim::Counter statLbaEvictions;
    sim::Counter statPlainEvictions;
};

} // namespace hwdp::os

#endif // HWDP_OS_RMAP_HH
