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
    s.ioRange(meta.begin(), meta.end());
    s.io(useClock);
    s.io(hits);
    s.io(misses);
    s.io(nValid);
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
