/**
 * @file
 * LBA-augmented page table entry layout (paper Figure 6 / Table I).
 *
 * A 64-bit entry in one of two shapes:
 *
 *  present (P=1):   [63 NX][62:59 pkey][51:12 PFN][11:10 avl/LBA]
 *                   [6 D][5 A][2 U][1 W][0 P=1]
 *  LBA-augmented    [63 NX][62:59 pkey][58:18 LBA (41 bits)]
 *  (P=0, LBA=1):    [17:15 device id (3)][14:12 socket id (3)]
 *                   [10 LBA=1][2 U][1 W][0 P=0]
 *
 * The LBA bit is bit 10, the bit the paper's real-machine prototype
 * uses. The socket-id / device-id / LBA widths are the paper's 3/3/41
 * split, giving up to 8 sockets, 8 block devices per socket and 1 PB
 * per device. Upper-level (PMD/PUD) entries reuse the same LBA bit to
 * mean "some PTE below was hardware-handled and its OS metadata is not
 * synchronised yet" (Table I), which is what lets kpted skip clean
 * subtrees.
 */

#ifndef HWDP_OS_PTE_HH
#define HWDP_OS_PTE_HH

#include <cstdint>
#include <optional>

#include "sim/types.hh"

namespace hwdp::os::pte {

using Entry = std::uint64_t;

inline constexpr Entry presentBit = 1ULL << 0;
inline constexpr Entry writableBit = 1ULL << 1;
inline constexpr Entry userBit = 1ULL << 2;
inline constexpr Entry accessedBit = 1ULL << 5;
inline constexpr Entry dirtyBit = 1ULL << 6;
inline constexpr Entry lbaBit = 1ULL << 10;
inline constexpr Entry nxBit = 1ULL << 63;

/**
 * Wide-translation bits (pageMode != off; never set otherwise). Bit 7
 * is the x86 PS bit: set on a *PMD* entry it makes that entry a 2 MB
 * leaf whose PFN is 512-frame aligned. Bit 8 is the SVNAPOT idiom
 * squeezed into a free x86 ignored bit: set on a 4 KB PTE it promises
 * that the whole naturally aligned 16-page (64 KB) range around it is
 * present with contiguous, equally aligned frames, so the TLB may
 * install one wide entry for the range. Both bits live in the
 * present-shape's free bits (3, 4, 7, 8, 9) and never collide with the
 * LBA-augmented layout, which only exists on non-present PTEs.
 */
inline constexpr Entry psBit = 1ULL << 7;
inline constexpr Entry napotBit = 1ULL << 8;

inline constexpr unsigned pfnShift = 12;
inline constexpr Entry pfnMask = ((1ULL << 40) - 1) << pfnShift;

inline constexpr unsigned sidShift = 12;
inline constexpr Entry sidFieldMask = 0x7ULL << sidShift;
inline constexpr unsigned devShift = 15;
inline constexpr Entry devFieldMask = 0x7ULL << devShift;
inline constexpr unsigned lbaShift = 18;
inline constexpr Entry lbaFieldMask = ((1ULL << 41) - 1) << lbaShift;

/** Largest encodable LBA (41 bits => 1 PB of 512 B blocks). */
inline constexpr std::uint64_t maxLba = (1ULL << 41) - 1;

/**
 * Reserved LBA marking a first-touch anonymous page (Section V,
 * "Demand Paging Support for Anonymous Page"): the SMU bypasses I/O
 * and installs a zero-filled frame. Real files never receive this
 * block because the file system reserves it.
 */
inline constexpr Lba zeroFillLba = maxLba;

inline bool isPresent(Entry e) { return e & presentBit; }
inline bool hasLbaBit(Entry e) { return e & lbaBit; }
inline bool isWritable(Entry e) { return e & writableBit; }
inline bool isAccessed(Entry e) { return e & accessedBit; }
inline bool isDirty(Entry e) { return e & dirtyBit; }

/** Non-resident, LBA-augmented: hardware will handle the miss. */
inline bool
isLbaAugmented(Entry e)
{
    return !isPresent(e) && hasLbaBit(e);
}

/** Resident but OS metadata not yet synchronised (kpted pending). */
inline bool
needsMetadataSync(Entry e)
{
    return isPresent(e) && hasLbaBit(e);
}

/** Non-resident and not augmented: the OS must handle the miss. */
inline bool
isOsHandledMiss(Entry e)
{
    return !isPresent(e) && !hasLbaBit(e);
}

inline Pfn
pfnOf(Entry e)
{
    return (e & pfnMask) >> pfnShift;
}

/** Raw field readers: on a resident entry they read PFN bits. */
namespace detail {

inline unsigned
socketIdOf(Entry e)
{
    return static_cast<unsigned>((e & sidFieldMask) >> sidShift);
}

inline unsigned
deviceIdOf(Entry e)
{
    return static_cast<unsigned>((e & devFieldMask) >> devShift);
}

inline Lba
lbaOf(Entry e)
{
    return (e & lbaFieldMask) >> lbaShift;
}

} // namespace detail

/** Where an LBA-augmented entry's page lives: socket, device, LBA. */
struct LbaTarget
{
    unsigned sid = 0;
    unsigned dev = 0;
    Lba lba = 0;
};

/**
 * The one checked reader of the fields: empty unless the entry is
 * LBA-augmented, the only shape Table I gives them meaning in.
 */
inline std::optional<LbaTarget>
lbaTargetOf(Entry e)
{
    if (!isLbaAugmented(e))
        return std::nullopt;
    return LbaTarget{detail::socketIdOf(e), detail::deviceIdOf(e),
                     detail::lbaOf(e)};
}

/** Non-PFN, non-LBA-field bits (protection and friends). */
inline Entry
protectionOf(Entry e)
{
    return e & (writableBit | userBit | nxBit);
}

/** Build a resident entry. */
inline Entry
makePresent(Pfn pfn, Entry prot, bool keep_lba_bit = false)
{
    Entry e = presentBit | (prot & ~(pfnMask | presentBit | lbaBit));
    e |= (static_cast<Entry>(pfn) << pfnShift) & pfnMask;
    if (keep_lba_bit)
        e |= lbaBit;
    return e;
}

/** Build an LBA-augmented non-resident entry. */
inline Entry
makeLbaAugmented(unsigned sid, unsigned dev, Lba lba, Entry prot)
{
    Entry e = lbaBit | (prot & (writableBit | userBit | nxBit));
    e |= (static_cast<Entry>(sid) << sidShift) & sidFieldMask;
    e |= (static_cast<Entry>(dev) << devShift) & devFieldMask;
    e |= (static_cast<Entry>(lba) << lbaShift) & lbaFieldMask;
    return e;
}

/**
 * Convert a resident PTE that still carries the LBA bit into a fully
 * synchronised resident PTE (kpted's final step).
 */
inline Entry
clearLbaBit(Entry e)
{
    return e & ~lbaBit;
}

inline Entry
setLbaBit(Entry e)
{
    return e | lbaBit;
}

// ---- Wide-translation helpers (pageMode != off) ------------------------

/** Present PMD entry that is itself a 2 MB leaf. */
inline bool
isHugeLeaf(Entry e)
{
    return isPresent(e) && (e & psBit);
}

/** Present 4 KB PTE inside a promoted 64 KB NAPOT range. */
inline bool
hasNapotBit(Entry e)
{
    return isPresent(e) && (e & napotBit);
}

/** log2(pages) of reach a present entry grants the TLB (0, 4 or 9). */
inline unsigned
reachOf(Entry e)
{
    if (e & psBit)
        return pmdLeafShift;
    if (e & napotBit)
        return napotShift;
    return 0;
}

/** Build a 2 MB PMD-leaf entry. @p pfn must be 512-frame aligned. */
inline Entry
makeHugeLeaf(Pfn pfn, Entry prot, bool keep_lba_bit = false)
{
    return makePresent(pfn, prot, keep_lba_bit) | psBit;
}

inline Entry
setNapotBit(Entry e)
{
    return e | napotBit;
}

inline Entry
clearNapotBit(Entry e)
{
    return e & ~napotBit;
}

} // namespace hwdp::os::pte

#endif // HWDP_OS_PTE_HH
