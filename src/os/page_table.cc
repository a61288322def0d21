#include "os/page_table.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

namespace {

/** Bytes of virtual address space one entry covers at each level. */
constexpr std::uint64_t
levelSpan(PtLevel level)
{
    return 1ULL << (pageShift +
                    PageTable::bitsPerLevel * static_cast<unsigned>(level));
}

} // namespace

PageTable::PageTable()
    // Symbolic, process-unique table addresses: high "kernel" range.
    : nextTableBase(0xffff'8000'0000'0000ULL)
{
    root = std::make_unique<Table>();
    root->base = nextTableBase;
    nextTableBase += pageSize;
    nTables = 1;
}

PageTable::~PageTable() = default;

unsigned
PageTable::levelIndex(VAddr vaddr, PtLevel level)
{
    unsigned shift =
        pageShift + bitsPerLevel * static_cast<unsigned>(level);
    return static_cast<unsigned>((vaddr >> shift) & (entriesPerTable - 1));
}

PageTable::Table *
PageTable::childTable(Table &t, unsigned idx, bool allocate)
{
    // A 2 MB leaf terminates the walk at its own entry: the child
    // table (kept allocated across promote/demote cycles so entry
    // addresses never change) is unreachable while the leaf is live.
    if (pte::isHugeLeaf(t.e[idx])) {
        if (allocate)
            panic("page table: walk would descend through a 2 MB leaf; "
                  "demote it first");
        return nullptr;
    }
    if (Table *c = t.childAt(idx))
        return c;
    if (!allocate)
        return nullptr;
    Table &c = newChild(t, idx);
    c.base = nextTableBase;
    nextTableBase += pageSize;
    // The upper entry becomes a present table pointer.
    t.e[idx] |= pte::presentBit;
    return &c;
}

PageTable::Table &
PageTable::newChild(Table &t, unsigned idx)
{
    if (!t.child)
        t.child = std::make_unique<Table::Children>();
    auto &slot = (*t.child)[idx];
    slot = std::make_unique<Table>();
    ++nTables;
    return *slot;
}

pte::Entry
PageTable::readPte(VAddr vaddr) const
{
    const Table *t = root.get();
    for (int level = 3; level >= 1; --level) {
        unsigned idx = levelIndex(vaddr, static_cast<PtLevel>(level));
        if (level == 1 && pte::isHugeLeaf(t->e[idx])) {
            // Synthesize the covered 4 KB view: same flags, exact
            // frame. Readers that never learned about huge pages keep
            // working; reach-aware ones test psBit.
            pte::Entry leaf = t->e[idx];
            Pfn pfn = pte::pfnOf(leaf) +
                      ((vaddr >> pageShift) & (pmdLeafPages - 1));
            return (leaf & ~pte::pfnMask) |
                   ((static_cast<pte::Entry>(pfn) << pte::pfnShift) &
                    pte::pfnMask);
        }
        const Table *c = t->childAt(idx);
        if (!c)
            return 0;
        t = c;
    }
    return t->e[levelIndex(vaddr, PtLevel::pt)];
}

void
PageTable::writePte(VAddr vaddr, pte::Entry e)
{
    Table *t = root.get();
    for (int level = 3; level >= 1; --level) {
        unsigned idx = levelIndex(vaddr, static_cast<PtLevel>(level));
        t = childTable(*t, idx, true);
    }
    t->e[levelIndex(vaddr, PtLevel::pt)] = e;
}

EntryRef
PageTable::hugeLeafRef(VAddr vaddr, bool allocate)
{
    Table *pgd = root.get();
    Table *pud = childTable(*pgd, levelIndex(vaddr, PtLevel::pgd),
                            allocate);
    if (!pud)
        return {};
    Table *pmd = childTable(*pud, levelIndex(vaddr, PtLevel::pud),
                            allocate);
    if (!pmd)
        return {};
    unsigned idx = levelIndex(vaddr, PtLevel::pmd);
    return {&pmd->e[idx], pmd->base + idx * sizeof(pte::Entry)};
}

void
PageTable::writeHugeLeaf(VAddr vaddr, pte::Entry leaf)
{
    Table *pgd = root.get();
    Table *pud = childTable(*pgd, levelIndex(vaddr, PtLevel::pgd), true);
    Table *pmd = childTable(*pud, levelIndex(vaddr, PtLevel::pud), true);
    unsigned idx = levelIndex(vaddr, PtLevel::pmd);
    // A kept-from-earlier child table becomes unreachable; clear its
    // entries so nothing stale survives a later demotion or scan.
    if (Table *pt = pmd->childAt(idx))
        pt->e.fill(0);
    pmd->e[idx] = leaf;
}

void
PageTable::splitHugeLeaf(VAddr vaddr)
{
    Table *pgd = root.get();
    Table *pud = childTable(*pgd, levelIndex(vaddr, PtLevel::pgd), true);
    Table *pmd = childTable(*pud, levelIndex(vaddr, PtLevel::pud), true);
    unsigned idx = levelIndex(vaddr, PtLevel::pmd);
    pte::Entry leaf = pmd->e[idx];
    if (!pte::isHugeLeaf(leaf))
        panic("page table: splitHugeLeaf on a non-leaf PMD entry");
    // Demote the entry to a table pointer *first* so childTable is
    // willing to descend (allocating or reviving the kept table).
    pmd->e[idx] = pte::presentBit;
    Table *pt = childTable(*pmd, idx, true);
    Pfn base = pte::pfnOf(leaf);
    pte::Entry flags = leaf & ~(pte::pfnMask | pte::psBit);
    for (unsigned i = 0; i < entriesPerTable; ++i)
        pt->e[i] = (flags & ~pte::pfnMask) |
                   ((static_cast<pte::Entry>(base + i) << pte::pfnShift) &
                    pte::pfnMask);
}

void
PageTable::forEachHugeLeaf(VAddr start, VAddr end,
                           const std::function<void(VAddr, EntryRef)> &fn)
{
    constexpr VAddr span = levelSpan(PtLevel::pmd);
    for (VAddr va = start & ~(span - 1); va < end; va += span) {
        EntryRef ref = hugeLeafRef(va, false);
        if (ref.valid() && pte::isHugeLeaf(ref.value()))
            fn(va, ref);
    }
}

WalkRefs
PageTable::walkRefs(VAddr vaddr, bool allocate)
{
    WalkRefs refs;
    Table *pgd = root.get();
    unsigned pgd_idx = levelIndex(vaddr, PtLevel::pgd);
    Table *pud = childTable(*pgd, pgd_idx, allocate);
    if (!pud)
        return refs;

    unsigned pud_idx = levelIndex(vaddr, PtLevel::pud);
    refs.pud.slot = &pud->e[pud_idx];
    refs.pud.addr = pud->base + pud_idx * sizeof(pte::Entry);

    Table *pmd = childTable(*pud, pud_idx, allocate);
    if (!pmd)
        return refs;

    unsigned pmd_idx = levelIndex(vaddr, PtLevel::pmd);
    refs.pmd.slot = &pmd->e[pmd_idx];
    refs.pmd.addr = pmd->base + pmd_idx * sizeof(pte::Entry);

    Table *pt = childTable(*pmd, pmd_idx, allocate);
    if (!pt)
        return refs;

    unsigned pt_idx = levelIndex(vaddr, PtLevel::pt);
    refs.pte.slot = &pt->e[pt_idx];
    refs.pte.addr = pt->base + pt_idx * sizeof(pte::Entry);
    return refs;
}

void
PageTable::markUpperLba(VAddr vaddr)
{
    WalkRefs refs = walkRefs(vaddr, false);
    if (!refs.pud.valid() || !refs.pmd.valid())
        panic("markUpperLba on unpopulated tree at vaddr ", vaddr);
    refs.pmd.write(pte::setLbaBit(refs.pmd.value()));
    refs.pud.write(pte::setLbaBit(refs.pud.value()));
}

std::uint64_t
PageTable::scanImpl(VAddr start, VAddr end, bool guided,
                    const std::function<void(VAddr, EntryRef)> &fn,
                    std::uint64_t *entries_visited)
{
    std::uint64_t synced = 0;
    std::uint64_t visited = 0;

    constexpr std::uint64_t pud_span = levelSpan(PtLevel::pud);
    constexpr std::uint64_t pmd_span = levelSpan(PtLevel::pmd);

    for (VAddr va = start & ~(levelSpan(PtLevel::pgd) - 1); va < end;
         va += levelSpan(PtLevel::pgd)) {
        unsigned pgd_idx = levelIndex(va, PtLevel::pgd);
        Table *pud_t = root->childAt(pgd_idx);
        ++visited;
        if (!pud_t)
            continue;

        VAddr pud_lo = std::max<VAddr>(va, start & ~(pud_span - 1));
        for (VAddr pva = pud_lo; pva < end && pva < va +
                 levelSpan(PtLevel::pgd); pva += pud_span) {
            unsigned pud_idx = levelIndex(pva, PtLevel::pud);
            ++visited;
            Table *pmd_t = pud_t->childAt(pud_idx);
            if (!pmd_t)
                continue;
            if (guided) {
                if (!pte::hasLbaBit(pud_t->e[pud_idx]))
                    continue;
                // Clear before descending so a concurrent hardware
                // miss re-marks the entry (scan-condition guarantee,
                // Section IV-C).
                pud_t->e[pud_idx] = pte::clearLbaBit(pud_t->e[pud_idx]);
            }

            VAddr pmd_lo = std::max<VAddr>(pva, start & ~(pmd_span - 1));
            for (VAddr mva = pmd_lo; mva < end && mva < pva + pud_span;
                 mva += pmd_span) {
                unsigned pmd_idx = levelIndex(mva, PtLevel::pmd);
                ++visited;
                Table *pt_t = pmd_t->childAt(pmd_idx);
                if (!pt_t)
                    continue;
                if (guided) {
                    if (!pte::hasLbaBit(pmd_t->e[pmd_idx]))
                        continue;
                    pmd_t->e[pmd_idx] =
                        pte::clearLbaBit(pmd_t->e[pmd_idx]);
                }

                // In-range entry window, hoisted out of the loop
                // (same entries the per-entry va check would pass).
                unsigned i_lo = 0, i_hi = entriesPerTable;
                if (start > mva) {
                    i_lo = static_cast<unsigned>(
                        (start - mva + pageSize - 1) / pageSize);
                }
                if (end < mva + pmd_span) {
                    i_hi = static_cast<unsigned>(std::min<std::uint64_t>(
                        entriesPerTable,
                        (end - mva + pageSize - 1) / pageSize));
                }
                visited += i_hi > i_lo ? i_hi - i_lo : 0;
                const pte::Entry *arr = pt_t->e.data();
                for (unsigned i = i_lo; i < i_hi;) {
                    // Sync-needing entries are rare (a few per leaf
                    // table between scans), so test eight at a time:
                    // the predicate needs *both* the present and LBA
                    // bits, and if their union lacks either bit no
                    // entry in the block can have both.
                    if (i + 8 <= i_hi) {
                        pte::Entry u = arr[i] | arr[i + 1] | arr[i + 2] |
                                       arr[i + 3] | arr[i + 4] |
                                       arr[i + 5] | arr[i + 6] |
                                       arr[i + 7];
                        if (!pte::needsMetadataSync(u)) {
                            i += 8;
                            continue;
                        }
                    }
                    if (pte::needsMetadataSync(arr[i])) {
                        EntryRef ref{&pt_t->e[i],
                                     pt_t->base + i * sizeof(pte::Entry)};
                        fn(mva + static_cast<VAddr>(i) * pageSize, ref);
                        ++synced;
                    }
                    ++i;
                }
            }
        }
    }
    if (entries_visited)
        *entries_visited = visited;
    return synced;
}

std::uint64_t
PageTable::scanUnsynced(VAddr start, VAddr end,
                        const std::function<void(VAddr, EntryRef)> &fn,
                        std::uint64_t *entries_visited)
{
    return scanImpl(start, end, true, fn, entries_visited);
}

std::uint64_t
PageTable::scanUnsyncedFull(VAddr start, VAddr end,
                            const std::function<void(VAddr, EntryRef)> &fn,
                            std::uint64_t *entries_visited)
{
    return scanImpl(start, end, false, fn, entries_visited);
}

void
PageTable::serializeTable(sim::Serializer &s, Table &t)
{
    PAddr base = t.base;
    s.io(base);
    if (s.loading()) {
        if (t.base == 0)
            t.base = base; // table recreated from the blob
        else if (base != t.base)
            throw sim::SerializeError(
                "page table base divergence: restore target was not "
                "booted with the saved machine's recipe");
    }
    s.io(t.e);

    std::array<std::uint64_t, entriesPerTable / 64> mask{};
    for (unsigned i = 0; i < entriesPerTable; ++i)
        if (t.childAt(i))
            mask[i / 64] |= std::uint64_t(1) << (i % 64);
    std::array<std::uint64_t, entriesPerTable / 64> stored = mask;
    s.io(stored);
    if (s.loading()) {
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            bool inBlob =
                (stored[i / 64] >> (i % 64)) & 1;
            bool live = (mask[i / 64] >> (i % 64)) & 1;
            if (live && !inBlob)
                throw sim::SerializeError(
                    "restore target has page tables the checkpoint "
                    "lacks (target must be freshly booted)");
            if (inBlob && !live) {
                // The saved machine grew this subtree after boot;
                // recreate it. Its base is read inside the recursion.
                newChild(t, i);
            }
        }
    }
    for (unsigned i = 0; i < entriesPerTable; ++i)
        if ((stored[i / 64] >> (i % 64)) & 1)
            serializeTable(s, *t.childAt(i));
}

void
PageTable::serialize(sim::Serializer &s)
{
    s.section("pagetable");
    if (s.loading() && root->base != 0xffff'8000'0000'0000ULL)
        throw sim::SerializeError("page table root base unexpected");
    serializeTable(s, *root);
    s.io(nTables);
    s.io(nextTableBase);
}

void
PageTable::forEachPte(VAddr start, VAddr end,
                      const std::function<void(VAddr, EntryRef)> &fn)
{
    for (VAddr va = start; va < end; va += pageSize) {
        WalkRefs refs = walkRefs(va, false);
        if (!refs.pte.valid()) {
            // Skip to the next leaf-table boundary to avoid a
            // page-by-page crawl over unpopulated gigabytes.
            VAddr span = levelSpan(PtLevel::pmd);
            VAddr next = (va & ~(span - 1)) + span;
            if (next <= va)
                break;
            va = next - pageSize;
            continue;
        }
        fn(va, refs.pte);
    }
}

} // namespace hwdp::os
