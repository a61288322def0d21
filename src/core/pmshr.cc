#include "core/pmshr.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
Pmshr::serialize(sim::Serializer &s)
{
    s.section("pmshr");
    if (used != 0)
        throw sim::SerializeError(
            "checkpoint: PMSHR has outstanding misses; quiesce the "
            "machine first");
    std::uint64_t n = entries.size();
    s.check(n, "pmshr capacity");
}

Pmshr::Pmshr(unsigned n_entries) : entries(n_entries)
{
    if (n_entries == 0)
        fatal("pmshr: need at least one entry");
}

int
Pmshr::lookup(PAddr pte_addr) const
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].valid && entries[i].pteAddr == pte_addr)
            return static_cast<int>(i);
    }
    return -1;
}

int
Pmshr::allocate(PAddr pte_addr)
{
    if (lookup(pte_addr) >= 0)
        panic("pmshr: duplicate allocate for PTE ", pte_addr);
    if (fullHook && fullHook())
        return -1;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid) {
            entries[i].valid = true;
            entries[i].pteAddr = pte_addr;
            entries[i].pfn = 0;
            entries[i].retried = false;
            entries[i].fromTier = false;
            entries[i].waiters.clear();
            ++used;
            return static_cast<int>(i);
        }
    }
    return -1;
}

Pmshr::Entry &
Pmshr::entry(int idx)
{
    if (idx < 0 || static_cast<std::size_t>(idx) >= entries.size() ||
        !entries[idx].valid)
        panic("pmshr: bad entry index ", idx);
    return entries[idx];
}

const Pmshr::Entry &
Pmshr::entry(int idx) const
{
    if (idx < 0 || static_cast<std::size_t>(idx) >= entries.size() ||
        !entries[idx].valid)
        panic("pmshr: bad entry index ", idx);
    return entries[idx];
}

void
Pmshr::invalidate(int idx)
{
    Entry &e = entry(idx);
    e.valid = false;
    e.waiters.clear();
    --used;
}

} // namespace hwdp::core
