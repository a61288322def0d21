#include "testing/logical_state.hh"

#include <sstream>

#include "os/file_system.hh"
#include "os/kernel.hh"
#include "os/page_table.hh"
#include "os/pte.hh"
#include "system/system.hh"

namespace hwdp::testing {

bool
PageState::operator==(const PageState &o) const
{
    return resident == o.resident && fileBacked == o.fileBacked &&
           fileId == o.fileId && fileIndex == o.fileIndex &&
           dirty == o.dirty && synced == o.synced && rmapOk == o.rmapOk &&
           lruLinked == o.lruLinked && inPageCache == o.inPageCache;
}

std::uint64_t
packFlags(const PageState &ps)
{
    return (std::uint64_t(ps.resident) << 0) |
           (std::uint64_t(ps.fileBacked) << 1) |
           (std::uint64_t(ps.dirty) << 2) |
           (std::uint64_t(ps.synced) << 3) |
           (std::uint64_t(ps.rmapOk) << 4) |
           (std::uint64_t(ps.lruLinked) << 5) |
           (std::uint64_t(ps.inPageCache) << 6);
}

std::string
describePageState(const PageState &ps)
{
    std::ostringstream os;
    if (!ps.resident) {
        os << "non-resident";
    } else {
        os << "resident";
        os << (ps.synced ? " synced" : " UNSYNCED");
        if (ps.dirty)
            os << " dirty";
        os << (ps.rmapOk ? " rmap-ok" : " rmap-BROKEN");
        if (ps.lruLinked)
            os << " lru";
        if (ps.inPageCache)
            os << " pagecache";
    }
    if (ps.fileBacked)
        os << " file=" << ps.fileId << ":" << ps.fileIndex;
    else
        os << " anon:" << ps.fileIndex;
    return os.str();
}

namespace {

inline void
fold(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

/**
 * The one walk. @p keep_pages false computes only the hash (the
 * checkpoint footer) without materialising the page records.
 */
MachineState
walk(system::System &sys, const std::string &label, bool keep_pages)
{
    using namespace os::pte;

    MachineState ms;
    ms.label = label;
    ms.stateHash = 14695981039346656037ULL;

    os::Kernel &kern = sys.kernel();
    for (const auto &as : kern.addressSpaces()) {
        AsState ast;
        ast.asid = as->id();
        for (const auto &vma : as->vmas()) {
            VmaState vs;
            vs.start = vma->start;
            vs.end = vma->end;
            vs.anon = vma->file == nullptr;
            if (keep_pages)
                vs.pages.reserve(vma->numPages());
            for (std::uint64_t i = 0; i < vma->numPages(); ++i) {
                VAddr va = vma->start + (i << pageShift);
                Entry e = as->pageTable().readPte(va);

                PageState ps;
                ps.fileBacked = vma->file != nullptr;
                ps.fileId = vma->file ? vma->file->id() : 0;
                ps.fileIndex =
                    vma->file ? vma->fileIndexOf(va) : i;
                if (isPresent(e)) {
                    ps.resident = true;
                    ps.synced = !hasLbaBit(e);
                    const os::Page &pg = kern.page(pfnOf(e));
                    ps.dirty = pg.dirty || isDirty(e);
                    ps.rmapOk =
                        pg.as == as.get() && pg.vaddr == va;
                    ps.lruLinked =
                        kern.reclaimer().lru().contains(pfnOf(e));
                    ps.inPageCache = pg.inPageCache;
                }
                fold(ms.stateHash, ast.asid);
                fold(ms.stateHash, ps.fileIndex);
                fold(ms.stateHash, ps.fileId);
                fold(ms.stateHash, packFlags(ps));
                if (keep_pages)
                    vs.pages.push_back(ps);
            }
            ast.vmas.push_back(std::move(vs));
        }
        ms.spaces.push_back(std::move(ast));
    }

    ms.totalAppOps = sys.totalAppOps();
    ms.oomKills = kern.oomKills();
    ms.faultsServiced = kern.majorFaults() + kern.minorFaults();
    for (const system::Socket &sk : sys.socketTopology()) {
        if (sk.smu)
            ms.faultsServiced += sk.smu->handled();
        if (sk.swSmu)
            ms.faultsServiced += sk.swSmu->handled();
    }
    return ms;
}

} // namespace

MachineState
captureLogicalState(system::System &sys, const std::string &label)
{
    return walk(sys, label, true);
}

std::uint64_t
logicalStateHash(system::System &sys)
{
    return walk(sys, "hash", false).stateHash;
}

} // namespace hwdp::testing
