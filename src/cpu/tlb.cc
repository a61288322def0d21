#include "cpu/tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::cpu {

void
Tlb::serialize(sim::Serializer &s)
{
    s.section("tlb");
    std::uint64_t geom = (static_cast<std::uint64_t>(l1Sets) << 48) |
                         (static_cast<std::uint64_t>(l1Assoc) << 32) |
                         (static_cast<std::uint64_t>(l2Sets) << 16) |
                         l2Assoc;
    s.check(geom, "tlb geometry");
    // Only entries that differ from an untouched slot go out. Wide
    // state rides only in wide-capable machines; elsewhere reach is 0.
    for (auto *lvl : {&l1, &l2}) {
        s.sparse(*lvl, [](const Entry &) { return Entry{}; },
                 [&](Entry &e) {
                     s.io(e.vpn);
                     s.io(e.pfn);
                     s.io(e.lastUse);
                     s.io(e.valid);
                     if (wideCapable)
                         s.io(e.reach);
                 });
    }
    s.io(useClock);
    s.io(latchVpn);
    std::uint64_t latch = latchIdx == npos ? ~0ULL : latchIdx;
    s.io(latch);
    if (s.loading())
        latchIdx = latch == ~0ULL ? npos : static_cast<std::size_t>(latch);
    if (wideCapable)
        s.io(latchReach);
    if (s.loading()) {
        nNapot[0] = nNapot[1] = nHuge[0] = nHuge[1] = 0;
        nValid[0] = nValid[1] = 0;
        for (auto *lvl : {&l1, &l2}) {
            for (auto &e : *lvl) {
                if (!e.valid)
                    continue;
                ++nValid[levelOf(*lvl)];
                countWide(levelOf(*lvl), e.reach, +1);
            }
        }
    }
}

Tlb::Tlb(unsigned l1_entries, unsigned l2_entries, unsigned l2_assoc,
         unsigned l1_assoc, bool wide_capable, sim::StatRegistry *reg,
         std::string name)
    : l1Assoc(std::min(l1_assoc, l1_entries)), l2Assoc(l2_assoc),
      wideCapable(wide_capable), grp(std::move(name), reg),
      statLookups(grp, "lookups", "translations looked up"),
      statL1Misses(grp, "l1_misses", "lookups that missed the L1"),
      statMisses(grp, "misses", "lookups that missed both levels"),
      statWideHits("wide_hits", "hits served by a wide entry")
{
    if (wide_capable)
        grp.add(statWideHits);
    if (l1_entries == 0 || l2_entries == 0 || l2_assoc == 0 ||
        l1_assoc == 0 || l2_entries % l2_assoc != 0 ||
        l1_entries % l1Assoc != 0)
        fatal("tlb: bad geometry");
    l1Sets = l1_entries / l1Assoc;
    l2Sets = l2_entries / l2_assoc;
    l1.resize(l1_entries);
    l2.resize(l2_entries);
}

void
Tlb::countWide(unsigned level, unsigned reach, int delta)
{
    if (reach == napotShift)
        nNapot[level] += delta;
    else if (reach == pmdLeafShift)
        nHuge[level] += delta;
}

Tlb::Entry *
Tlb::find(std::vector<Entry> &lvl, unsigned sets, unsigned assoc,
          std::uint64_t vpn, unsigned reach)
{
    std::uint64_t key = vpn >> reach;
    Entry *base = &lvl[(key % sets) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        if (base[w].valid && base[w].reach == reach &&
            (base[w].vpn >> reach) == key)
            return &base[w];
    }
    return nullptr;
}

Tlb::Entry *
Tlb::fill(std::vector<Entry> &lvl, unsigned sets, unsigned assoc,
          std::uint64_t vpn, Pfn pfn, unsigned reach)
{
    std::uint64_t key = vpn >> reach;
    Entry *base = &lvl[(key % sets) * assoc];
    Entry *victim = base;
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    // Evicting the latched L1 slot would leave the latch pointing at
    // a different translation; drop it (the caller re-latches).
    if (&lvl == &l1 && latchIdx != npos && victim == &l1[latchIdx])
        latchIdx = npos;
    if (victim->valid)
        countWide(levelOf(lvl), victim->reach, -1);
    else
        ++nValid[levelOf(lvl)];
    countWide(levelOf(lvl), reach, +1);
    victim->valid = true;
    victim->vpn = key << reach;
    victim->pfn = pfn;
    victim->lastUse = ++useClock;
    victim->reach = static_cast<std::uint8_t>(reach);
    return victim;
}

Tlb::Result
Tlb::lookupSlow(std::uint64_t vpn)
{
    Result r;
    // Probe 4 KB first, then each wide size with any resident entry.
    // A pageMode = off machine never has a wide entry, so its probe
    // and useClock sequence is exactly the pre-huge-page one.
    for (unsigned reach : {0u, unsigned(napotShift),
                           unsigned(pmdLeafShift)}) {
        if (reach == napotShift && nNapot[0] == 0)
            continue;
        if (reach == pmdLeafShift && nHuge[0] == 0)
            continue;
        if (Entry *e = find(l1, l1Sets, l1Assoc, vpn, reach)) {
            e->lastUse = ++useClock;
            latchVpn = e->vpn;
            latchReach = e->reach;
            latchIdx = static_cast<std::size_t>(e - l1.data());
            if (e->reach)
                ++statWideHits;
            r.hit = true;
            r.l1Hit = true;
            r.pfn = e->pfn + (vpn & ((1ULL << e->reach) - 1));
            return r;
        }
    }
    ++statL1Misses;

    for (unsigned reach : {0u, unsigned(napotShift),
                           unsigned(pmdLeafShift)}) {
        if (reach == napotShift && nNapot[1] == 0)
            continue;
        if (reach == pmdLeafShift && nHuge[1] == 0)
            continue;
        if (Entry *e = find(l2, l2Sets, l2Assoc, vpn, reach)) {
            e->lastUse = ++useClock;
            Entry *ne =
                fill(l1, l1Sets, l1Assoc, e->vpn, e->pfn, e->reach);
            latchVpn = ne->vpn;
            latchReach = ne->reach;
            latchIdx = static_cast<std::size_t>(ne - l1.data());
            if (e->reach)
                ++statWideHits;
            r.hit = true;
            r.pfn = e->pfn + (vpn & ((1ULL << e->reach) - 1));
            return r;
        }
    }
    ++statMisses;
    return r;
}

void
Tlb::insert(VAddr vaddr, Pfn pfn, unsigned reach)
{
    std::uint64_t vpn = (vaddr >> pageShift) >> reach << reach;
    pfn = pfn >> reach << reach;

    Entry *e1 = find(l1, l1Sets, l1Assoc, vpn, reach);
    if (!e1) {
        e1 = fill(l1, l1Sets, l1Assoc, vpn, pfn, reach);
        latchVpn = e1->vpn;
        latchReach = e1->reach;
        latchIdx = static_cast<std::size_t>(e1 - l1.data());
    } else if (e1->pfn != pfn) {
        e1->pfn = pfn;
        e1->lastUse = ++useClock;
    }

    Entry *e2 = find(l2, l2Sets, l2Assoc, vpn, reach);
    if (!e2) {
        fill(l2, l2Sets, l2Assoc, vpn, pfn, reach);
    } else if (e2->pfn != pfn) {
        e2->pfn = pfn;
        e2->lastUse = ++useClock;
    }
}

void
Tlb::invalidate(VAddr vaddr)
{
    std::uint64_t vpn = vaddr >> pageShift;
    // The latch may hold a wide entry whose range covers this VPN; a
    // 4 KB-only compare here would leave a stale wide latch alive
    // after its frames were reclaimed.
    if (latchIdx != npos &&
        (vpn >> latchReach) == (latchVpn >> latchReach))
        latchIdx = npos;
    for (unsigned lv = 0; lv < 2; ++lv) {
        if (nValid[lv] == 0)
            continue;
        auto &arr = lv == 0 ? l1 : l2;
        unsigned sets = lv == 0 ? l1Sets : l2Sets;
        unsigned assoc = lv == 0 ? l1Assoc : l2Assoc;
        for (unsigned reach : {0u, unsigned(napotShift),
                               unsigned(pmdLeafShift)}) {
            if (reach == napotShift && nNapot[lv] == 0)
                continue;
            if (reach == pmdLeafShift && nHuge[lv] == 0)
                continue;
            if (Entry *e = find(arr, sets, assoc, vpn, reach)) {
                e->valid = false;
                --nValid[lv];
                countWide(lv, e->reach, -1);
            }
        }
    }
}

void
Tlb::invalidateRange(VAddr vaddr, std::uint64_t pages)
{
    std::uint64_t lo = vaddr >> pageShift;
    std::uint64_t hi = lo + pages;
    if (latchIdx != npos) {
        std::uint64_t base = latchVpn >> latchReach << latchReach;
        if (base < hi && lo < base + (1ULL << latchReach))
            latchIdx = npos;
    }
    for (unsigned lv = 0; lv < 2; ++lv) {
        if (nValid[lv] == 0)
            continue;
        auto &arr = lv == 0 ? l1 : l2;
        for (Entry &e : arr) {
            if (!e.valid)
                continue;
            std::uint64_t base = e.vpn;
            if (base < hi && lo < base + (1ULL << e.reach)) {
                e.valid = false;
                --nValid[lv];
                countWide(lv, e.reach, -1);
            }
        }
    }
}

void
Tlb::flush()
{
    latchIdx = npos;
    latchReach = 0;
    for (Entry &e : l1)
        e.valid = false;
    for (Entry &e : l2)
        e.valid = false;
    nNapot[0] = nNapot[1] = nHuge[0] = nHuge[1] = 0;
    nValid[0] = nValid[1] = 0;
}

} // namespace hwdp::cpu
