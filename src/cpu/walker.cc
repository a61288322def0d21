#include "cpu/walker.hh"

#include "sim/serialize.hh"

namespace hwdp::cpu {

void
Walker::serialize(sim::Serializer &s)
{
    s.section("walker");
    std::uint64_t n = pwc.size();
    s.check(n, "pwc capacity");
    for (auto &e : pwc) {
        s.io(e.addr);
        s.io(e.lastUse);
        s.io(e.valid);
    }
    s.io(pwcClock);
    s.io(nPwcValid);
}

Walker::Walker(mem::CacheHierarchy &caches, unsigned phys_core,
               unsigned pwc_entries, sim::StatRegistry *reg,
               std::string name)
    : caches(caches), physCore(phys_core), pwc(pwc_entries), grp(std::move(name), reg),
      statWalks(grp, "walks", "page-table walks"),
      statPwcHits(grp, "pwc_hits", "upper-entry reads the PWC served"),
      statPwcMisses(grp, "pwc_misses",
                    "upper-entry reads charged to the caches"),
      statRemoteSteps("remote_walk_steps",
                      "walk steps that paid the remote-node premium")
{
}

bool
Walker::pwcLookup(PAddr addr)
{
    for (PwcEntry &e : pwc) {
        if (e.valid && e.addr == addr) {
            e.lastUse = ++pwcClock;
            return true;
        }
    }
    return false;
}

void
Walker::pwcInsert(PAddr addr)
{
    if (pwc.empty())
        return;
    PwcEntry *victim = &pwc.front();
    for (PwcEntry &e : pwc) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    if (!victim->valid)
        ++nPwcValid;
    victim->valid = true;
    victim->addr = addr;
    victim->lastUse = ++pwcClock;
}

void
Walker::pwcInvalidate(PAddr entry_addr)
{
    if (nPwcValid == 0)
        return;
    for (PwcEntry &e : pwc) {
        if (e.valid && e.addr == entry_addr) {
            e.valid = false;
            --nPwcValid;
        }
    }
}

void
Walker::pwcFlush()
{
    for (PwcEntry &e : pwc)
        e.valid = false;
    nPwcValid = 0;
}

Walker::Outcome
Walker::walk(os::AddressSpace &as, VAddr vaddr)
{
    ++statWalks;
    Outcome out;

    os::WalkRefs refs = as.pageTable().walkRefs(vaddr, false);
    out.refs = refs;

    // Root access (PGD entry) is effectively always cached; the PUD
    // and PMD entry reads go through the PWC and are only charged to
    // the hierarchy on a PWC miss. The leaf PTE read is always
    // charged. Walker traffic is attributed to user mode: it exists
    // identically under OSDP and HWDP and is not OS pollution.
    // NUMA: page-table pages are kernel allocations interleaved
    // across sockets (page-granular entry address picks the node); a
    // charged step that misses the LLC on a remote node pays the
    // interconnect hop on top. Single-socket machines never enter the
    // extra branch.
    auto charge = [this](PAddr addr) {
        auto res = caches.access(physCore, addr, false, ExecMode::user);
        Cycles c = res.latency;
        if (numaSockets > 1 && res.llcMiss &&
            (addr >> pageShift) % numaSockets != mySocket) {
            c += numaRemoteExtraCycles;
            ++statRemoteSteps;
        }
        return c;
    };
    Cycles cycles = 0;
    for (const os::EntryRef *r : {&refs.pud, &refs.pmd}) {
        if (!r->valid())
            break;
        if (pwcLookup(r->addr)) {
            ++statPwcHits;
            continue;
        }
        ++statPwcMisses;
        cycles += charge(r->addr);
        pwcInsert(r->addr);
    }
    // A 2 MB PMD leaf terminates the walk one level early: the PMD
    // entry (already charged / PWC-filtered above) is the
    // translation, and no leaf PTE read exists to charge — the
    // latency edge huge pages give a hardware walker.
    if (refs.pmd.valid() && os::pte::isHugeLeaf(refs.pmd.value())) {
        out.latency = cycles * cyclePeriod;
        os::pte::Entry leaf = refs.pmd.value();
        if (!os::pte::isAccessed(leaf))
            refs.pmd.write(leaf | os::pte::accessedBit);
        out.entry = refs.pmd.value();
        out.kind = Classification::present;
        return out;
    }
    if (refs.pmd.valid() && refs.pte.valid())
        cycles += charge(refs.pte.addr);
    out.latency = cycles * cyclePeriod;

    if (!refs.pte.valid()) {
        out.kind = Classification::osFault;
        return out;
    }

    os::pte::Entry e = refs.pte.value();
    out.entry = e;
    if (os::pte::isPresent(e)) {
        // Hardware A-bit update on translation.
        if (!os::pte::isAccessed(e))
            refs.pte.write(e | os::pte::accessedBit);
        out.kind = Classification::present;
    } else if (os::pte::hasLbaBit(e)) {
        out.kind = Classification::hwMiss;
    } else {
        out.kind = Classification::osFault;
    }
    return out;
}

} // namespace hwdp::cpu
