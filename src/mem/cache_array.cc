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
    if (hit_bitmap) {
        for (std::size_t w = 0; w < (n + 63) / 64; ++w)
            hit_bitmap[w] = 0;
    }

    // Wide arrays only (the LLC): the metadata exceeds the host
    // cache, so a set scan is a host memory stall. Prefetching each
    // set this many lines before its scan overlaps those stalls; the
    // hint is safe under any aliasing (a stale prefetch just warms
    // the line the scan re-reads).
    const bool wide = ways > 8;
    constexpr std::size_t lookahead = 12;
    if (wide) {
        for (std::size_t j = 0; j < std::min(lookahead, n); ++j)
            prefetch(addrs[j]);
    }

    std::size_t nmiss = 0;
    std::size_t i = 0;
    while (i < n) {
        // The reference path renormalises when the clock saturates at
        // the start of an access; cutting the run at the same
        // headroom reproduces the renormalisation points exactly.
        if (useClock == stampMask) [[unlikely]]
            renormalize();
        std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - i, stampMask - useClock));

        for (std::size_t j = i; j < i + chunk; ++j) {
            if (wide && j + lookahead < n)
                prefetch(addrs[j + lookahead]);
            std::uint64_t addr = addrs[j];
            bool hit = accessOne(addr, useClock + (j - i) + 1);
            // Branch-free compaction: the store is unconditional, the
            // cursor advances only on a miss.
            miss_out[nmiss] = addr;
            nmiss += !hit;
            if (hit_bitmap)
                hit_bitmap[j >> 6] |=
                    static_cast<std::uint64_t>(hit) << (j & 63);
        }
        useClock += chunk;
        i += chunk;
    }

    hits += n - nmiss;
    misses += nmiss;
    return n - nmiss;
}

bool
CacheArray::invalidate(std::uint64_t addr)
{
    std::size_t base = (addr >> lineShiftBits & (sets - 1)) *
                       static_cast<std::size_t>(ways);
    std::uint64_t want = tagWord(addr);
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

void
CacheArray::renormalize()
{
    // Per set: insertion-sort the valid ways by stamp, then rewrite
    // each stamp as its 1-based rank. ways <= 64 keeps the scratch on
    // the stack. The clock restarts above the largest assigned rank.
    for (unsigned s = 0; s < sets; ++s) {
        std::uint64_t *row = &meta[static_cast<std::size_t>(s) * ways];
        unsigned order[64];
        unsigned n = 0;
        for (unsigned w = 0; w < ways; ++w) {
            if (row[w] == 0)
                continue;
            unsigned pos = n++;
            while (pos > 0 && (row[order[pos - 1]] & stampMask) >
                                  (row[w] & stampMask)) {
                order[pos] = order[pos - 1];
                --pos;
            }
            order[pos] = w;
        }
        for (unsigned r = 0; r < n; ++r) {
            std::uint64_t m = row[order[r]];
            row[order[r]] = (m & ~stampMask) | (r + 1);
        }
    }
    useClock = ways;
}

} // namespace hwdp::mem
