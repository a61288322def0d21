#include "mem/cache_hierarchy.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
CacheHierarchy::serialize(sim::Serializer &s)
{
    s.section("caches");
    std::uint64_t nc = l1d.size();
    s.check(nc, "cache core count");
    for (std::size_t c = 0; c < l1d.size(); ++c) {
        l1i[c].serialize(s);
        l1d[c].serialize(s);
        l2[c].serialize(s);
    }
    llc.serialize(s);
    for (auto &mc : modeCtrs) {
        s.io(mc.l1iAccesses);
        s.io(mc.l1iMisses);
        s.io(mc.l1dAccesses);
        s.io(mc.l1dMisses);
        s.io(mc.l2Misses);
        s.io(mc.llcMisses);
    }
}

CacheHierarchy::CacheHierarchy(unsigned n_cores, const CacheParams &params)
    : prm(params), llc("llc", params.llcBytes, params.llcAssoc)
{
    if (n_cores == 0)
        fatal("cache hierarchy: need at least one core");
    l1i.reserve(n_cores);
    l1d.reserve(n_cores);
    l2.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        l1i.emplace_back("l1i" + std::to_string(c), prm.l1iBytes,
                         prm.l1iAssoc);
        l1d.emplace_back("l1d" + std::to_string(c), prm.l1dBytes,
                         prm.l1dAssoc);
        l2.emplace_back("l2_" + std::to_string(c), prm.l2Bytes,
                        prm.l2Assoc);
    }
}

CacheBatchResult
CacheHierarchy::accessBatch(unsigned core, const std::uint64_t *addrs,
                            std::size_t n, bool is_inst, ExecMode mode)
{
    if (core >= l1d.size()) [[unlikely]]
        badCore(core);

    CacheBatchResult r;
    if (n == 0)
        return r;
    ModeCounters &mc = modeCtrs[static_cast<unsigned>(mode)];

    if (batchMiss1.size() < n) {
        batchMiss1.resize(n);
        batchMiss2.resize(n);
        batchMiss3.resize(n);
    }

    // Level-major: the whole run against the L1, its compacted miss
    // list through the L2, then the LLC. Each array's access sequence
    // is the same subsequence it would see line-major, so state and
    // counters match the per-line path exactly.
    CacheArray &first = is_inst ? l1i[core] : l1d[core];
    std::size_t h1 = first.accessBatch(addrs, n, batchMiss1.data());
    std::size_t m1 = n - h1;
    r.l1Misses = m1;
    if (is_inst) {
        mc.l1iAccesses += n;
        mc.l1iMisses += m1;
    } else {
        mc.l1dAccesses += n;
        mc.l1dMisses += m1;
    }

    std::size_t m2 = 0;
    if (m1 > 0) {
        m2 = m1 - l2[core].accessBatch(batchMiss1.data(), m1,
                                       batchMiss2.data());
        r.l2Misses = m2;
        mc.l2Misses += m2;
    }
    if (m2 > 0) {
        r.llcMisses =
            m2 - llc.accessBatch(batchMiss2.data(), m2, batchMiss3.data());
        mc.llcMisses += r.llcMisses;
    }
    return r;
}

void
CacheHierarchy::badCore(unsigned core) const
{
    panic("cache hierarchy: core ", core, " out of range");
}

void
CacheHierarchy::resetCounters()
{
    modeCtrs[0] = ModeCounters{};
    modeCtrs[1] = ModeCounters{};
}

} // namespace hwdp::mem
