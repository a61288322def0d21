/**
 * @file
 * Set-associative cache tag array with true-LRU replacement.
 *
 * Only tags are modelled (no data), which is all the paper's
 * microarchitectural-pollution analysis needs: the OS fault handler
 * evicts user-application lines, and the resulting extra user misses
 * show up as reduced user-level IPC (Figures 4 and 14).
 *
 * Layout: each way is a single 64-bit word packing the tag (upper
 * bits) with its LRU stamp (lower bits), so a set scan reads exactly
 * one densely packed stream of ways and a hit updates recency in the
 * word it already loaded. The words are 64-byte aligned, so an 8-way
 * set (every L1 and L2) is one host cache line and one aligned
 * 512-bit load. Splitting tags and stamps into parallel arrays
 * doubles the host cache lines touched per scan, which dominates the
 * simulator's wall clock on the LLC (whose metadata exceeds the host
 * L2). The stamp field is narrow, so stamps are renormalised to their
 * per-set LRU rank when the clock saturates; order — the only thing
 * LRU consults — is preserved exactly. Renormalisation ranks by
 * counting, not sorting, so it is branch-free and vectorises.
 *
 * Runs of lookups (accessBatch: the pollution model's compute bursts
 * and kernel phases) go through one loop body specialised on the way
 * count, with the geometry, LRU clock and counters held in registers
 * for the whole run. On AVX-512CD hosts the 8-way body scans up to
 * eight lines at once whose sets are pairwise distinct; otherwise it
 * shares the per-line access()'s set scans.
 *
 * Victim selection (the way with the smallest stamp; invalid ways
 * carry stamp 0 and therefore win) rides along with the hit scan so a
 * miss installs its line without a second pass over the set.
 */

#ifndef HWDP_MEM_CACHE_ARRAY_HH
#define HWDP_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#if defined(__AVX512F__)
// GCC's AVX-512 intrinsics pass _mm512_undefined_epi32() as the
// masked-builtin pass-through argument, which -Wmaybe-uninitialized
// flags once the intrinsics inline into our scans (GCC PR105593).
// Suppress at the header, where the warnings are attributed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::mem {

/** Allocator for host-cache-line-aligned (64-byte) arrays. */
template <class T>
struct LineAligned
{
    using value_type = T;

    LineAligned() = default;
    template <class U>
    LineAligned(const LineAligned<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        // aligned_alloc wants a size that is a multiple of the
        // alignment.
        const std::size_t bytes = (n * sizeof(T) + 63) / 64 * 64;
        if (void *p = std::aligned_alloc(64, bytes ? bytes : 64))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }

    void deallocate(T *p, std::size_t) { std::free(p); }

    template <class U>
    bool
    operator==(const LineAligned<U> &) const
    {
        return true;
    }
};

class CacheArray
{
  public:
    /**
     * @param name       For diagnostics.
     * @param size_bytes Total capacity; must be assoc * n_sets * line.
     * @param assoc      Ways per set (at most 64).
     * @param line_bytes Line size (default 64 B).
     */
    CacheArray(std::string name, std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes = 64);

    /**
     * Look up @p addr, allocating on miss.
     * @return true on hit.
     */
    bool
    access(std::uint64_t addr)
    {
        if (useClock == stampMask) [[unlikely]]
            renormalize();
        std::uint64_t *row = &meta[setBase(addr)];
        std::uint64_t want = tagWord(addr, stampMask);
        // The 8- and 20-way arms cover every array the default
        // CacheParams builds (L1/L2 and the LLC respectively); other
        // geometries take the generic runtime-width scan.
        SetScan s = ways == 8    ? scanSetFixed<8>(row, want, stampMask)
                    : ways == 20 ? scanSetWide<20>(row, want, stampMask)
                                 : scanSet(row, want, stampMask, ways);
        row[s.way] = want | ++useClock;
        nValid += s.fill;
        hits += s.hit;
        misses += !s.hit;
        return s.hit;
    }

    /**
     * Look up a run of @p n line addresses, allocating on miss, with
     * identical post-state and counters to n sequential access()
     * calls: line i installs with stamp useClock + i + 1 (a stamp
     * depends only on its position), each line's scan sees every
     * earlier line's installation in its set, so set collisions and
     * aliasing within the run need no special handling, and
     * renormalisation fires at exactly the same access indices. The
     * wins are on the host: one call replaces n, the loop body is
     * specialised once per call on the way count (accessRun), the
     * geometry, clock and counters stay in registers and are written
     * back once, misses compact directly into the next level's input
     * run, and on wide arrays (whose metadata exceeds the host cache)
     * every upcoming set is prefetched a window ahead of its scan,
     * overlapping the latency the per-line path serialises. On
     * AVX-512CD hosts an 8-way run is scanned in groups of up to
     * eight consecutive lines whose sets are pairwise distinct: no
     * line of a group can see another's installation, so scanning
     * them side by side is the per-line order by construction.
     *
     * @param miss_out   Receives the missing addresses, in run order,
     *                   compacted; must hold @p n words. This is the
     *                   next level's input in a level-major descent.
     * @param hit_bitmap Optional (tests): bit i set iff line i hit;
     *                   at least (n + 63) / 64 words.
     * @return the number of hits (n minus the miss_out count).
     */
    std::size_t accessBatch(const std::uint64_t *addrs, std::size_t n,
                            std::uint64_t *miss_out,
                            std::uint64_t *hit_bitmap = nullptr);

    /** Look up without allocating or updating recency. */
    bool
    probe(std::uint64_t addr) const
    {
        std::size_t base = setBase(addr);
        std::uint64_t want = tagWord(addr, stampMask);
        for (unsigned w = 0; w < ways; ++w) {
            if ((meta[base + w] & ~stampMask) == want)
                return true;
        }
        return false;
    }

    /** Invalidate a single line if present; returns true if it was. */
    bool invalidate(std::uint64_t addr);

    /** Drop all contents (e.g. on simulated power events / tests). */
    void flush();

    /** Number of valid lines currently resident (O(1) live counter). */
    std::uint64_t occupancy() const { return nValid; }

    std::uint64_t sizeBytes() const { return bytes; }
    unsigned associativity() const { return ways; }
    unsigned numSets() const { return sets; }
    unsigned lineBytes() const { return line; }
    const std::string &name() const { return label; }

    std::uint64_t hitCount() const { return hits; }
    std::uint64_t missCount() const { return misses; }

    /**
     * Raw tag+stamp words (sets * ways, row-major by set). The
     * differential tests compare this for full post-state equality
     * between the batched and per-line paths.
     */
    const std::vector<std::uint64_t, LineAligned<std::uint64_t>> &
    rawMeta() const
    {
        return meta;
    }

    /**
     * Checkpoint the packed tag+stamp words, the LRU clock and the
     * hit/miss/occupancy counters; the geometry is verified.
     */
    void serialize(sim::Serializer &s);

  private:
    /** Outcome of one set scan: where to install, and what happened. */
    struct SetScan
    {
        unsigned way; ///< Way the line lands in.
        bool hit;
        bool fill; ///< Miss that fills an invalid way.
    };

    /**
     * scanSet with the way count a compile-time constant: the compiler
     * fully unrolls both the branchless hit scan and the victim
     * argmin, with no loop-control or runtime-trip-count overhead.
     * The 8-way instantiation serves every L1 and L2 probe — the
     * hottest loop in the simulator by an order of magnitude — where
     * the unrolled form measures ~25% faster than the runtime loop.
     * Semantically identical to the generic narrow path below.
     */
    template <unsigned W>
    [[gnu::always_inline]] static inline SetScan
    scanSetFixed(const std::uint64_t *row, std::uint64_t want,
                 std::uint64_t stamp_mask)
    {
        static_assert(W <= 8, "fixed scan covers narrow sets only");
        const std::uint64_t tag_mask = ~stamp_mask;

#if defined(__AVX512F__)
        // One 512-bit register holds the whole 8-way set: a single
        // masked compare finds the hit way, and the victim argmin
        // min-reduces the (stamp << 6 | way) keys in u64 lanes — keys
        // are unique (the way bits break stamp ties exactly like the
        // scalar strict-min), so the reduction picks the identical
        // way, with no width constraint on the stamp field.
        if constexpr (W == 8) {
            __m512i r = _mm512_loadu_si512(row);
            __m512i vmask =
                _mm512_set1_epi64(static_cast<long long>(tag_mask));
            __m512i vwant =
                _mm512_set1_epi64(static_cast<long long>(want));
            __mmask8 m = _mm512_cmpeq_epi64_mask(
                _mm512_and_epi64(r, vmask), vwant);
            if (m)
                return {static_cast<unsigned>(__builtin_ctz(m)), true,
                        false};

            __m512i vstamp =
                _mm512_set1_epi64(static_cast<long long>(stamp_mask));
            __m512i keys = _mm512_or_epi64(
                _mm512_slli_epi64(_mm512_and_epi64(r, vstamp), 6),
                _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
            std::uint64_t best = _mm512_reduce_min_epu64(keys);
            return {static_cast<unsigned>(best & 63), false, best >> 6 == 0};
        }
#endif

        std::uint64_t found = 0;
        unsigned hit_way = 0;
        for (unsigned w = 0; w < W; ++w) {
            bool eq = (row[w] & tag_mask) == want;
            found |= eq;
            hit_way = eq ? w : hit_way;
        }
        if (found)
            return {hit_way, true, false};

        std::uint64_t best = ~std::uint64_t(0);
        std::uint64_t alt = ~std::uint64_t(0);
        unsigned w = 0;
        for (; w + 1 < W; w += 2) {
            std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
            std::uint64_t b = (row[w + 1] & stamp_mask) << 6 | (w + 1);
            best = best < a ? best : a;
            alt = alt < b ? alt : b;
        }
        if (w < W) {
            std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
            best = best < a ? best : a;
        }
        best = best < alt ? best : alt;
        return {static_cast<unsigned>(best & 63), false, best >> 6 == 0};
    }

    /**
     * Wide-set scan with the way count a compile-time constant — the
     * LLC counterpart of scanSetFixed. With AVX-512 the hit scan runs
     * at exact trip count (the tail lanes via a masked load, never
     * reading past the set) and the victim argmin min-reduces the
     * (stamp << 6 | way) keys in u64 lanes instead of the generic
     * scan's serial cmov chain over a runtime trip count. Keys are
     * unique (the way bits break stamp ties exactly like the scalar
     * strict-min), so the reduction picks the identical way.
     * Semantically identical to the generic scan; hosts without
     * AVX-512 just take the generic scan.
     */
    template <unsigned W>
    [[gnu::always_inline]] static inline SetScan
    scanSetWide(const std::uint64_t *row, std::uint64_t want,
                std::uint64_t stamp_mask)
    {
        static_assert(W > 8 && W <= 64, "wide scan covers 9..64 ways");
#if defined(__AVX512F__)
        const std::uint64_t tag_mask = ~stamp_mask;
        __builtin_prefetch(row + 8);
        if constexpr (W > 16)
            __builtin_prefetch(row + 16);

        const __m512i vmask =
            _mm512_set1_epi64(static_cast<long long>(tag_mask));
        const __m512i vwant =
            _mm512_set1_epi64(static_cast<long long>(want));
        constexpr unsigned full = W / 8 * 8;
        constexpr __mmask8 tail =
            static_cast<__mmask8>((1u << W % 8) - 1);
        for (unsigned w = 0; w < full; w += 8) {
            __m512i r = _mm512_loadu_si512(row + w);
            __mmask8 m = _mm512_cmpeq_epi64_mask(
                _mm512_and_epi64(r, vmask), vwant);
            if (m)
                return {w + static_cast<unsigned>(__builtin_ctz(m)), true,
                        false};
        }
        if constexpr (W % 8) {
            __m512i r = _mm512_maskz_loadu_epi64(tail, row + full);
            __mmask8 m = tail & _mm512_cmpeq_epi64_mask(
                                    _mm512_and_epi64(r, vmask), vwant);
            if (m)
                return {full + static_cast<unsigned>(__builtin_ctz(m)),
                        true, false};
        }

        // Miss: re-walk the set (now host-resident) building keys and
        // min-reducing; tail lanes are padded with ~0 so they lose.
        const __m512i vstamp =
            _mm512_set1_epi64(static_cast<long long>(stamp_mask));
        const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        __m512i best512 = _mm512_set1_epi64(-1);
        for (unsigned w = 0; w < full; w += 8) {
            __m512i r = _mm512_loadu_si512(row + w);
            __m512i keys = _mm512_or_epi64(
                _mm512_slli_epi64(_mm512_and_epi64(r, vstamp), 6),
                _mm512_add_epi64(lane, _mm512_set1_epi64(w)));
            best512 = _mm512_min_epu64(best512, keys);
        }
        if constexpr (W % 8) {
            __m512i r = _mm512_maskz_loadu_epi64(tail, row + full);
            __m512i keys = _mm512_or_epi64(
                _mm512_slli_epi64(_mm512_and_epi64(r, vstamp), 6),
                _mm512_add_epi64(lane, _mm512_set1_epi64(full)));
            keys = _mm512_mask_blend_epi64(tail,
                                           _mm512_set1_epi64(-1), keys);
            best512 = _mm512_min_epu64(best512, keys);
        }
        std::uint64_t best = _mm512_reduce_min_epu64(best512);
        return {static_cast<unsigned>(best & 63), false, best >> 6 == 0};
#else
        return scanSet(row, want, stamp_mask, W);
#endif
    }

    /**
     * Scan the @p ways-wide set @p row for @p want: hit way on a hit,
     * LRU victim on a miss. Read-only — the caller installs
     * want | stamp into row[way]. Both access() and accessBatch()
     * funnel every lookup through this scan (or its fixed-width
     * forms above), which is what keeps the two paths bit-identical
     * by construction.
     */
    static SetScan
    scanSet(const std::uint64_t *row, std::uint64_t want,
            std::uint64_t stamp_mask, unsigned ways)
    {
        // Hit scan first, with no victim bookkeeping: a min-reduction
        // carried through the loop serialises it on the host, and the
        // common case (a hit) never needs one.
        const std::uint64_t tag_mask = ~stamp_mask;
        if (ways <= 8) {
            // Narrow set (one host line): scan branchless. An
            // early-exit loop mispredicts once per access because the
            // hit way is unpredictable; accumulating the hit way with
            // conditional moves costs a few ALU ops and no flush.
            std::uint64_t found = 0;
            unsigned hit_way = 0;
            for (unsigned w = 0; w < ways; ++w) {
                bool eq = (row[w] & tag_mask) == want;
                found |= eq;
                hit_way = eq ? w : hit_way;
            }
            if (found)
                return {hit_way, true, false};
        } else {
            // Wide set (several host lines, large array): the scan is
            // memory-latency-bound, so start the trailing lines'
            // fetches before walking the set in order.
            __builtin_prefetch(&row[8]);
            if (ways > 16)
                __builtin_prefetch(&row[16]);
            for (unsigned w = 0; w < ways; ++w) {
                if ((row[w] & tag_mask) == want)
                    return {w, true, false};
            }
        }

        // Miss: second pass (over the set just loaded into the host
        // cache) for the smallest stamp; invalid ways carry 0 and win.
        // Stamp and way index pack into one key (ways <= 64), turning
        // the argmin into plain min chains; two accumulators keep the
        // host's cmov latency off the critical path. Stamp ties can
        // only be invalid ways, which the way-index bits break toward
        // the first — matching the strict-min scan this replaces.
        std::uint64_t best = ~std::uint64_t(0);
        std::uint64_t alt = ~std::uint64_t(0);
        unsigned w = 0;
        for (; w + 1 < ways; w += 2) {
            std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
            std::uint64_t b = (row[w + 1] & stamp_mask) << 6 | (w + 1);
            best = best < a ? best : a;
            alt = alt < b ? alt : b;
        }
        if (w < ways) {
            std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
            best = best < a ? best : a;
        }
        best = best < alt ? best : alt;
        return {static_cast<unsigned>(best & 63), false, best >> 6 == 0};
    }

    /**
     * The accessBatch loop, specialised on the way count (W = 8 and 20
     * select the inlined fixed-width scans, or on AVX-512CD hosts the
     * 8-way lane groups; 0 the runtime-width scan) and on whether to
     * record the test-only hit bitmap. The scans are static and take
     * the row and stamp mask by value because a meta[] store is a
     * uint64_t store that may alias this object's uint64_t fields:
     * reading useClock or stampMask through `this` inside the loop
     * would reload them after every install. So the loop keeps
     * geometry, clock, fill count and miss cursor in locals and writes
     * the members back once per call (and around renormalize()).
     */
    template <unsigned W, bool Bitmap>
    std::size_t accessRun(const std::uint64_t *addrs, std::size_t n,
                          std::uint64_t *miss_out,
                          std::uint64_t *hit_bitmap);

    std::string label;
    std::uint64_t bytes;
    unsigned ways;
    unsigned line;
    unsigned sets;
    unsigned lineShiftBits;
    unsigned setBits;

    /**
     * Stamp field width = line-offset bits + set-index bits: exactly
     * the address bits the tag does not need, so tag | stamp always
     * fits one word with the tag exact. Stamps of valid ways are in
     * [1, stampMask]; 0 is reserved for invalid ways (and makes the
     * all-zero word the invalid encoding). Once the clock reaches
     * stampMask, the next access renormalises before it installs.
     */
    std::uint64_t stampMask;

    /** sets * ways, row-major by set. */
    std::vector<std::uint64_t, LineAligned<std::uint64_t>> meta;
    std::uint64_t useClock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t nValid = 0;

    /**
     * Tag field for @p addr, positioned above the stamp. Stored with
     * +1 bias so no valid way ever encodes as zero: the tag field of
     * a real line is therefore never 0 and an invalid way (word 0)
     * can never false-hit address 0. The bias cannot overflow for any
     * modelled address (it would need the top line of the 64-bit
     * space, which nothing maps).
     */
    static std::uint64_t
    tagWord(std::uint64_t addr, std::uint64_t stamp_mask)
    {
        // ((addr >> k) + 1) << k with k the stamp width, without the
        // variable shifts.
        return (addr & ~stamp_mask) + stamp_mask + 1;
    }

    /** meta[] index of way 0 of the set @p addr maps to. */
    std::size_t
    setBase(std::uint64_t addr) const
    {
        return (addr >> lineShiftBits & (sets - 1)) *
               static_cast<std::size_t>(ways);
    }

    /**
     * Rewrite every stamp as its per-set LRU rank (1..ways), resetting
     * the clock to ways. Order-preserving, so replacement behaviour is
     * bit-identical; runs once every stampMask accesses (4,095 on a
     * 32 KB L1, 32,767 on a 256 KB L2). The rank is a count, not a
     * sort: a valid way's new stamp is 1 plus the number of valid
     * ways in its set with a smaller stamp, which equals its sorted
     * position because valid stamps within a set are unique (each
     * install takes a fresh clock value, and the clock restarts above
     * the largest rank). Branch-free, and vectorised over the ways.
     */
    void renormalize();
};

} // namespace hwdp::mem

#endif // HWDP_MEM_CACHE_ARRAY_HH
