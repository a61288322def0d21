#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
CacheArray::serialize(sim::Serializer &s)
{
    s.section("cachearray");
    s.check(bytes, "cache size");
    s.check(ways, "cache associativity");
    s.check(line, "cache line size");
    std::uint64_t n = meta.size();
    s.check(n, "cache meta words");
    // Only valid ways go out; an invalid way's word is 0.
    std::uint64_t valid = s.sparse(
        meta, [](std::uint64_t) { return std::uint64_t(0); },
        [&](std::uint64_t &w) { s.io(w); });
    s.io(useClock);
    s.io(hits);
    s.io(misses);
    s.io(nValid);
    if (valid != nValid)
        throw sim::SerializeError(
            "cache '" + label + "': " + std::to_string(valid) +
            " valid ways but an occupancy of " + std::to_string(nValid));
}

CacheArray::CacheArray(std::string name, std::uint64_t size_bytes,
                       unsigned assoc, unsigned line_bytes)
    : label(std::move(name)), bytes(size_bytes), ways(assoc),
      line(line_bytes)
{
    if (assoc == 0 || line_bytes == 0 || size_bytes == 0)
        fatal("cache '", label, "': degenerate geometry");
    if (assoc > 64)
        fatal("cache '", label, "': associativity above 64 unsupported");
    if (!std::has_single_bit(static_cast<std::uint64_t>(line_bytes)))
        fatal("cache '", label, "': line size must be a power of two");
    std::uint64_t n_lines = size_bytes / line_bytes;
    if (n_lines % assoc != 0)
        fatal("cache '", label, "': size not divisible by assoc * line");
    sets = static_cast<unsigned>(n_lines / assoc);
    if (!std::has_single_bit(static_cast<std::uint64_t>(sets)))
        fatal("cache '", label, "': set count must be a power of two");
    lineShiftBits = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    setBits = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(sets)));
    stampMask = (std::uint64_t(1) << (lineShiftBits + setBits)) - 1;
    if (ways >= stampMask)
        fatal("cache '", label, "': stamp field too narrow for ", ways,
              " ways");
    meta.assign(static_cast<std::size_t>(sets) * ways, 0);
}

std::size_t
CacheArray::accessBatch(const std::uint64_t *addrs, std::size_t n,
                        std::uint64_t *miss_out,
                        std::uint64_t *hit_bitmap)
{
    if (n == 0)
        return 0;
    // One loop body per call, with the same width arms as access();
    // the test-only hit bitmap is a template flag, not a per-line test.
    if (hit_bitmap) {
        for (std::size_t w = 0; w < (n + 63) / 64; ++w)
            hit_bitmap[w] = 0;
        if (ways == 8)
            return accessRun<8, true>(addrs, n, miss_out, hit_bitmap);
        if (ways == 20)
            return accessRun<20, true>(addrs, n, miss_out, hit_bitmap);
        return accessRun<0, true>(addrs, n, miss_out, hit_bitmap);
    }
    if (ways == 8)
        return accessRun<8, false>(addrs, n, miss_out, nullptr);
    if (ways == 20)
        return accessRun<20, false>(addrs, n, miss_out, nullptr);
    return accessRun<0, false>(addrs, n, miss_out, nullptr);
}

#if defined(__AVX512F__) && defined(__AVX512CD__)
namespace {

/**
 * Lane j of the result is the minimum of the eight u64 lanes of
 * k[j]: a 21-op shuffle tree (three unpack/min steps pair rows, then
 * two rounds of 128-bit-lane shuffles and mins halve the partials).
 */
[[gnu::always_inline]] inline __m512i
rowMins(const __m512i (&k)[8])
{
    // Even lanes of the result: a's partial minima; odd lanes: b's.
    auto pair = [](__m512i a, __m512i b) {
        return _mm512_min_epu64(_mm512_unpacklo_epi64(a, b),
                                _mm512_unpackhi_epi64(a, b));
    };
    // 128-bit lane q of the result: min of lanes 2q, 2q+1 of a's
    // (q < 2) or b's (q >= 2) 128-bit lanes.
    auto halve = [](__m512i a, __m512i b) {
        return _mm512_min_epu64(_mm512_shuffle_i64x2(a, b, 0x88),
                                _mm512_shuffle_i64x2(a, b, 0xdd));
    };
    return halve(halve(pair(k[0], k[1]), pair(k[2], k[3])),
                 halve(pair(k[4], k[5]), pair(k[6], k[7])));
}

} // namespace
#endif

template <unsigned W, bool Bitmap>
std::size_t
CacheArray::accessRun(const std::uint64_t *addrs, std::size_t n,
                      std::uint64_t *miss_out, std::uint64_t *hit_bitmap)
{
    const unsigned nways = W ? W : ways;
    const unsigned line_shift = lineShiftBits;
    const std::uint64_t set_mask = sets - 1;
    const std::uint64_t stamp_mask = stampMask;
    std::uint64_t *const m = meta.data();
    auto row_of = [&](std::uint64_t addr) {
        return m + (addr >> line_shift & set_mask) * nways;
    };

    // Wide arrays only (the LLC): the metadata exceeds the host
    // cache, so a set scan is a host memory stall. Prefetching each
    // set this many lines before its scan overlaps those stalls; the
    // hint is safe under any aliasing (a stale prefetch just warms
    // the line the scan re-reads).
    const bool wide = nways > 8;
    constexpr std::size_t lookahead = 12;
    auto prefetch_set = [&](std::uint64_t addr) {
        const std::uint64_t *row = row_of(addr);
        __builtin_prefetch(row);
        __builtin_prefetch(row + 8);
        if (nways > 16)
            __builtin_prefetch(row + 16);
    };
    if (wide) {
        for (std::size_t j = 0; j < std::min(lookahead, n); ++j)
            prefetch_set(addrs[j]);
    }

    std::uint64_t clock = useClock;
    std::uint64_t fills = 0;
    std::size_t nmiss = 0;
    std::size_t i = 0;
    while (i < n) {
        // The reference path renormalises when the clock saturates at
        // the start of an access; cutting the run at the same
        // headroom reproduces the renormalisation points exactly.
        if (clock == stamp_mask) [[unlikely]] {
            useClock = clock;
            nValid += fills;
            fills = 0;
            renormalize();
            clock = useClock;
        }
        const std::size_t end =
            i + static_cast<std::size_t>(
                    std::min<std::uint64_t>(n - i, stamp_mask - clock));

#if defined(__AVX512F__) && defined(__AVX512CD__)
        if constexpr (W == 8) {
            // Lane groups: the longest prefix (up to eight lines) of
            // the next eight whose sets are pairwise distinct —
            // vpconflictq flags each lane whose set an earlier lane
            // already holds. Lane j scans its own row (one aligned
            // line), keying each way by its way index on a tag match
            // and by (stamp << 6 | way) + 64 otherwise, so the row's
            // minimum key is the hit way if any, else the LRU victim
            // (scanSetFixed's argmin; keys below 128 are invalid
            // ways). Lane j installs with stamp clock + 1 + j. Fewer
            // than eight lines left in the chunk take the per-line
            // loop below.
            const __m128i shift =
                _mm_cvtsi32_si128(static_cast<int>(line_shift));
            const __m512i set_bits =
                _mm512_set1_epi64(static_cast<long long>(set_mask));
            const __m512i tag_bits =
                _mm512_set1_epi64(static_cast<long long>(~stamp_mask));
            const __m512i stamp_bits =
                _mm512_set1_epi64(static_cast<long long>(stamp_mask));
            const __m512i way = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            const __m512i miss_way =
                _mm512_add_epi64(way, _mm512_set1_epi64(64));
            const __m512i lane_stamp =
                _mm512_add_epi64(way, _mm512_set1_epi64(1));
            while (end - i >= 8) {
                const __m512i a = _mm512_loadu_si512(addrs + i);
                const __m512i row = _mm512_slli_epi64(
                    _mm512_and_epi64(_mm512_srl_epi64(a, shift), set_bits),
                    3);
                const __m512i conf = _mm512_conflict_epi64(row);
                const unsigned k = static_cast<unsigned>(__builtin_ctz(
                    _mm512_test_epi64_mask(conf, conf) | 0x100u));
                const __mmask8 group = static_cast<__mmask8>((1u << k) - 1);

                __m512i key[8];
#pragma GCC unroll 8
                for (unsigned j = 0; j < 8; ++j) {
                    const std::uint64_t aj = addrs[i + j];
                    const __m512i r = _mm512_load_si512(row_of(aj));
                    const __mmask8 match = _mm512_cmpeq_epi64_mask(
                        _mm512_and_epi64(r, tag_bits),
                        _mm512_set1_epi64(static_cast<long long>(
                            tagWord(aj, stamp_mask))));
                    key[j] = _mm512_mask_blend_epi64(
                        match,
                        _mm512_add_epi64(
                            _mm512_slli_epi64(
                                _mm512_and_epi64(r, stamp_bits), 6),
                            miss_way),
                        way);
                }
                const __m512i best = rowMins(key);

                const __mmask8 hit =
                    group & _mm512_cmplt_epu64_mask(best,
                                                    _mm512_set1_epi64(64));
                const __mmask8 miss = group & ~hit;
                const __mmask8 fill =
                    miss & _mm512_cmplt_epu64_mask(best,
                                                   _mm512_set1_epi64(128));
                const __m512i want = _mm512_add_epi64(
                    _mm512_and_epi64(a, tag_bits),
                    _mm512_set1_epi64(static_cast<long long>(stamp_mask + 1)));
                const __m512i stamp = _mm512_add_epi64(
                    _mm512_set1_epi64(static_cast<long long>(clock)),
                    lane_stamp);
                _mm512_mask_i64scatter_epi64(
                    m, group,
                    _mm512_add_epi64(
                        row, _mm512_and_epi64(best, _mm512_set1_epi64(63))),
                    _mm512_or_epi64(want, stamp), 8);
                _mm512_mask_compressstoreu_epi64(miss_out + nmiss, miss, a);
                nmiss += static_cast<unsigned>(__builtin_popcount(miss));
                fills += static_cast<unsigned>(__builtin_popcount(fill));
                if constexpr (Bitmap) {
                    const unsigned bit = i & 63;
                    hit_bitmap[i >> 6] |= std::uint64_t(hit) << bit;
                    if (bit + k > 64)
                        hit_bitmap[(i >> 6) + 1] |=
                            std::uint64_t(hit) >> (64 - bit);
                }
                clock += k;
                i += k;
            }
        }
#endif
        for (; i < end; ++i) {
            if (wide && i + lookahead < n)
                prefetch_set(addrs[i + lookahead]);
            const std::uint64_t addr = addrs[i];
            std::uint64_t *row = row_of(addr);
            const std::uint64_t want = tagWord(addr, stamp_mask);
            SetScan s;
            if constexpr (W == 8)
                s = scanSetFixed<8>(row, want, stamp_mask);
            else if constexpr (W == 20)
                s = scanSetWide<20>(row, want, stamp_mask);
            else
                s = scanSet(row, want, stamp_mask, nways);
            row[s.way] = want | ++clock;
            fills += s.fill;
            // Branch-free compaction: the store is unconditional, the
            // cursor advances only on a miss.
            miss_out[nmiss] = addr;
            nmiss += !s.hit;
            if constexpr (Bitmap)
                hit_bitmap[i >> 6] |= static_cast<std::uint64_t>(s.hit)
                                      << (i & 63);
        }
    }

    useClock = clock;
    nValid += fills;
    hits += n - nmiss;
    misses += nmiss;
    return n - nmiss;
}

bool
CacheArray::invalidate(std::uint64_t addr)
{
    std::size_t base = setBase(addr);
    std::uint64_t want = tagWord(addr, stampMask);
    for (unsigned w = 0; w < ways; ++w) {
        if ((meta[base + w] & ~stampMask) == want) {
            meta[base + w] = 0;
            --nValid;
            return true;
        }
    }
    return false;
}

void
CacheArray::flush()
{
    meta.assign(meta.size(), 0);
    nValid = 0;
    useClock = 0;
}

namespace {

/**
 * Rank-count renormalisation of @p n_sets consecutive W-way sets
 * (W = 0: @p ways wide). Way w's new stamp is the number of valid ways
 * v of its set with stamp(v) <= stamp(w) — itself included, so 1 plus
 * the smaller ones. An invalid way (the all-zero word) enters the
 * count as ~0, above every stamp, and itself ranks 0 with tag 0: it
 * stays the zero word. Every inner loop is a fixed-shape compare/add
 * over the ways, which the compiler turns into vector compares.
 */
template <unsigned W>
void
rankSets(std::uint64_t *meta, unsigned n_sets, unsigned ways,
         std::uint64_t stamp_mask)
{
    const unsigned nw = W ? W : ways;
    for (unsigned s = 0; s < n_sets; ++s) {
        std::uint64_t *row = meta + static_cast<std::size_t>(s) * nw;
        std::uint64_t stamp[64];
        std::uint64_t key[64];
        std::uint64_t rank[64];
#pragma omp simd
        for (unsigned w = 0; w < nw; ++w) {
            stamp[w] = row[w] & stamp_mask;
            key[w] = row[w] ? stamp[w] : ~std::uint64_t(0);
            rank[w] = 0;
        }
        for (unsigned v = 0; v < nw; ++v) {
            const std::uint64_t k = key[v];
#pragma omp simd
            for (unsigned w = 0; w < nw; ++w)
                rank[w] += k <= stamp[w];
        }
#pragma omp simd
        for (unsigned w = 0; w < nw; ++w)
            row[w] = (row[w] & ~stamp_mask) | rank[w];
    }
}

} // namespace

void
CacheArray::renormalize()
{
    if (ways == 8)
        rankSets<8>(meta.data(), sets, ways, stampMask);
    else if (ways == 20)
        rankSets<20>(meta.data(), sets, ways, stampMask);
    else
        rankSets<0>(meta.data(), sets, ways, stampMask);
    useClock = ways;
}

} // namespace hwdp::mem
