#include "mem/phys_mem.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
PhysMem::serialize(sim::Serializer &s)
{
    s.section("physmem");
    s.check(nFrames, "physmem frame count");
    s.check(reservedFrames, "physmem reserved frames");
    // Entries that went stale under allocContig are compacted away
    // first: the restored machine starts from the compacted lists, so
    // the straight and forked runs pop identical live sequences. A
    // frame claimed contiguously and freed again appears twice (one
    // stale, one live entry), so compaction walks from the pop end
    // keeping only the first live occurrence of each frame — exactly
    // the entry alloc()'s lazy skip would hand out. A machine that
    // never used allocContig compacts nothing and keeps the
    // pre-huge-page blob byte-identical.
    if (!s.loading()) {
        for (unsigned sk = 0; sk < nSockets; ++sk) {
            auto &l = freeLists[sk];
            if (l.size() == freeCounts[sk])
                continue;
            std::vector<bool> seen(nFrames, false);
            std::vector<Pfn> keep;
            keep.reserve(freeCounts[sk]);
            for (auto it = l.rbegin(); it != l.rend(); ++it) {
                if (allocated[*it] || seen[*it])
                    continue;
                seen[*it] = true;
                keep.push_back(*it);
            }
            std::reverse(keep.begin(), keep.end());
            l = std::move(keep);
        }
    }
    // One list per socket in index order: a single-socket blob is
    // byte-identical to the pre-NUMA single-list layout.
    for (auto &l : freeLists)
        s.io(l);
    if (s.loading()) {
        allocated.assign(nFrames, true);
        for (unsigned sk = 0; sk < nSockets; ++sk) {
            freeCounts[sk] = freeLists[sk].size();
            for (Pfn pfn : freeLists[sk])
                allocated[pfn] = false;
        }
        // Reserved frames are the highest-numbered and never handed
        // out; keep their flags clear as at construction.
        for (std::uint64_t pfn = nFrames - reservedFrames; pfn < nFrames;
             ++pfn)
            allocated[pfn] = false;
        rebuildWindowCounts();
    }
}

PhysMem::PhysMem(sim::EventQueue &eq, std::uint64_t n_frames,
                 std::uint64_t reserved, unsigned n_sockets)
    : sim::SimObject("physmem", eq), nFrames(n_frames),
      reservedFrames(reserved), nSockets(n_sockets),
      allocated(n_frames, false),
      allocs(stats(), "allocs", "frames allocated"),
      frees(stats(), "frees", "frames freed"),
      failedAllocs(stats(), "failed_allocs",
                   "allocations that found no free frame")
{
    if (reserved >= n_frames)
        fatal("physmem: reserved (", reserved, ") >= total frames (",
              n_frames, ")");
    if (n_sockets == 0)
        fatal("physmem: zero sockets");
    const std::uint64_t allocatable = n_frames - reserved;
    if (n_sockets > allocatable)
        fatal("physmem: more sockets (", n_sockets,
              ") than allocatable frames (", allocatable, ")");
    socketSpan = allocatable / n_sockets;
    freeLists.resize(n_sockets);
    freeCounts.assign(n_sockets, 0);
    // Hand out low frame numbers first within each span (reserved
    // frames are the highest-numbered ones) so tests get predictable
    // PFNs; the last socket's span absorbs any remainder.
    for (unsigned s = 0; s < n_sockets; ++s) {
        std::uint64_t lo = s * socketSpan;
        std::uint64_t hi =
            (s + 1 == n_sockets) ? allocatable : (s + 1) * socketSpan;
        freeLists[s].reserve(hi - lo);
        for (std::uint64_t pfn = hi; pfn-- > lo;)
            freeLists[s].push_back(pfn);
        freeCounts[s] = hi - lo;
    }
    rebuildWindowCounts();
}

void
PhysMem::rebuildWindowCounts()
{
    windowFree.assign((nFrames + pmdLeafPages - 1) / pmdLeafPages, 0);
    for (const auto &l : freeLists)
        for (Pfn pfn : l)
            if (!allocated[pfn])
                ++windowFree[pfn >> pmdLeafShift];
}

Pfn
PhysMem::popFree(unsigned s)
{
    auto &l = freeLists[s];
    // Entries claimed out of the middle by allocContig are stale;
    // freeCounts[s] > 0 guarantees a live one remains below.
    while (allocated[l.back()])
        l.pop_back();
    Pfn pfn = l.back();
    l.pop_back();
    allocated[pfn] = true;
    --freeCounts[s];
    --windowFree[pfn >> pmdLeafShift];
    ++allocs;
    return pfn;
}

Pfn
PhysMem::alloc(unsigned socket)
{
    for (unsigned i = 0; i < nSockets; ++i) {
        unsigned s = (socket + i) % nSockets;
        if (freeCounts[s] != 0)
            return popFree(s);
    }
    ++failedAllocs;
    return invalidPfn;
}

Pfn
PhysMem::allocOnSocket(unsigned socket)
{
    if (freeCounts[socket] != 0)
        return popFree(socket);
    ++failedAllocs;
    return invalidPfn;
}

Pfn
PhysMem::allocContig(unsigned socket, unsigned order)
{
    const std::uint64_t run = 1ULL << order;
    if (run > pmdLeafPages)
        panic("physmem: allocContig order ", order, " beyond 2 MB");
    if (freeCounts[socket] < run) {
        ++failedAllocs;
        return invalidPfn;
    }
    const std::uint64_t lo = socket * socketSpan;
    const std::uint64_t hi = (socket + 1 == nSockets)
                                 ? nFrames - reservedFrames
                                 : (socket + 1) * socketSpan;
    // Whole-window scan: a window is eligible when every one of its
    // 512 frames is free, so runs of any order carve from fully free
    // windows only. That deliberately mirrors a buddy allocator's
    // high-order path (no splitting of partially used blocks) and
    // keeps the scan O(windows) with the per-window free counters.
    for (std::uint64_t w = (lo + pmdLeafPages - 1) >> pmdLeafShift;
         (w << pmdLeafShift) + pmdLeafPages <= hi; ++w) {
        if (windowFree[w] != pmdLeafPages)
            continue;
        Pfn base = w << pmdLeafShift;
        for (std::uint64_t i = 0; i < run; ++i)
            allocated[base + i] = true;
        freeCounts[socket] -= run;
        windowFree[w] -= static_cast<std::uint16_t>(run);
        allocs += run;
        return base;
    }
    ++failedAllocs;
    return invalidPfn;
}

void
PhysMem::free(Pfn pfn)
{
    if (pfn >= nFrames)
        panic("physmem: freeing out-of-range pfn ", pfn);
    if (!allocated[pfn])
        panic("physmem: double free of pfn ", pfn);
    allocated[pfn] = false;
    unsigned s = socketOf(pfn);
    freeLists[s].push_back(pfn);
    ++freeCounts[s];
    ++windowFree[pfn >> pmdLeafShift];
    ++frees;
}

bool
PhysMem::isAllocated(Pfn pfn) const
{
    return pfn < nFrames && allocated[pfn];
}

} // namespace hwdp::mem
