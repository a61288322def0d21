/**
 * @file
 * Per-frame OS metadata (the moral equivalent of struct page).
 *
 * Exactly the state the paper's control-plane work manipulates:
 * dirty/referenced bits, the page-cache identity (file, index) and
 * the reverse mapping back to the single virtual mapping (the design
 * reverts to OS paging on fork, so a page has at most one mapping —
 * Section V). LRU membership is not a field here: LruLists holds it.
 */

#ifndef HWDP_OS_PAGE_HH
#define HWDP_OS_PAGE_HH

#include <cstdint>

#include "sim/types.hh"

namespace hwdp::os {

class AddressSpace;
class File;

struct Page
{
    Pfn pfn = 0;

    /** Page-cache identity; nullptr for anonymous/free pages. */
    File *file = nullptr;
    std::uint64_t index = 0;

    /** Reverse mapping (single mapping by design). */
    AddressSpace *as = nullptr;
    VAddr vaddr = 0;

    bool inUse = false;        ///< Frame allocated to someone.
    bool dirty = false;        ///< Needs writeback before reuse.
    bool referenced = false;   ///< Second-chance bit for the clock.
    bool inPageCache = false;  ///< Indexed by the page cache.
    bool underWriteback = false;
    bool inSmuQueue = false;   ///< Donated to the SMU free page queue.

    /**
     * Compound-page shape (pageMode != off; always 0/false at off).
     * The head of a 2 MB mapping carries order 9 and is the only
     * LRU-linked page of the unit; its 511 tails carry the head's PFN
     * so any frame resolves to its unit in O(1). Dirty/referenced
     * tracking stays per 4 KB frame.
     */
    std::uint8_t order = 0;    ///< log2(pages) of the unit (head only).
    bool tail = false;         ///< Member (not head) of a compound unit.
    Pfn headPfn = 0;           ///< Head frame when tail is set.

    bool isCompoundHead() const { return order > 0; }

    bool operator==(const Page &) const = default;

    /** A free frame's metadata: every field but the PFN at its default. */
    static Page
    freed(Pfn pfn)
    {
        Page pg;
        pg.pfn = pfn;
        return pg;
    }

    void resetMetadata() { *this = freed(pfn); }
};

} // namespace hwdp::os

#endif // HWDP_OS_PAGE_HH
