#include "system/machine_config.hh"

#include <sstream>

#include "core/kcoalesced.hh"
#include "cpu/walker.hh"
#include "mem/cache_hierarchy.hh"
#include "ssd/ssd_profile.hh"
#include "tier/ktierd.hh"

namespace hwdp::system {

const char *
pagingModeName(PagingMode mode)
{
    switch (mode) {
      case PagingMode::osdp: return "OSDP";
      case PagingMode::hwdp: return "HWDP";
      case PagingMode::swsmu: return "SW-only";
    }
    return "?";
}

const char *
pageModeName(PageMode mode)
{
    switch (mode) {
      case PageMode::off: return "off (4 KB only)";
      case PageMode::thp: return "thp (2 MB transparent huge pages)";
      case PageMode::napot: return "napot (64 KB contiguous-PTE reach)";
      case PageMode::coalesce:
        return "coalesce (thp + napot + kcoalesced)";
    }
    return "?";
}

const char *
tierModeName(TierMode mode)
{
    switch (mode) {
      case TierMode::off: return "off (NVMe only)";
      case TierMode::cxl: return "cxl (memory buffer + NVMe)";
    }
    return "?";
}

std::string
MachineConfig::describe() const
{
    auto prof = ssd::profileByName(ssdProfile);
    const mem::CacheParams cache{};
    std::ostringstream os;
    os << "paging mode      : " << pagingModeName(mode) << '\n'
       << "CPU              : " << (1e6 / static_cast<double>(cyclePeriod))
       << " MHz, " << nPhysical << " physical / " << nLogical
       << " logical cores (SMT)\n"
       << "caches           : L1I " << cache.l1iBytes / 1024 << "K, L1D "
       << cache.l1dBytes / 1024 << "K, L2 " << cache.l2Bytes / 1024
       << "K, LLC " << cache.llcBytes / (1024 * 1024) << "M\n"
       << "memory           : " << (memFrames * pageSize) / (1024 * 1024)
       << " MB (" << memFrames << " frames)\n"
       << "storage          : " << prof.name << ", unloaded 4KB read "
       << toMicroseconds(prof.unloadedRead4k()) << " us, "
       << prof.channels << " channels\n"
       << "PMSHR            : " << smu.pmshrEntries << " entries\n"
       << "free page queue  : " << smu.freeQueueCapacity
       << " entries, prefetch buffer "
       << core::FreePageQueue::prefetchEntries << '\n'
       << "kpoold           : "
       << (kpooldEnabled ? "enabled" : "disabled") << ", period "
       << toMicroseconds(kpooldPeriod) / 1000.0 << " ms\n"
       << "kpted            : period "
       << toMicroseconds(kptedPeriod) / 1000.0 << " ms, "
       << (kptedGuidedScan ? "guided" : "full") << " scan\n";
    // Shown only when engaged, so the default dump stays a pure
    // Table II reproduction (and the checkpoint config hash — FNV over
    // this text — is unchanged for single-socket machines).
    if (sockets > 1)
        os << "sockets          : " << sockets << " x "
           << coresPerSocket() << " cores, " << nDevices
           << " NVMe/socket, remote DRAM +" << cpu::numaRemoteExtraCycles
           << " cyc, remote SMU +"
           << toNanoseconds(core::smuCosts.remoteRequest)
           << " ns, first-touch placement\n";
    // Shown only when engaged, keeping the default dump (and the
    // checkpoint config hash) identical to the 4 KB-only machine.
    if (pageMode != PageMode::off) {
        os << "page mode        : " << pageModeName(pageMode);
        if (pageMode == PageMode::coalesce)
            os << ", kcoalesced period "
               << toMicroseconds(core::Kcoalesced::wakePeriod) / 1000.0
               << " ms, " << core::Kcoalesced::batchWindows
               << " windows/pass";
        os << '\n';
    }
    // Shown only when engaged, keeping the default dump (and the
    // checkpoint config hash) identical to the NVMe-only machine.
    if (tierMode != TierMode::off) {
        const tier::CxlBuffer::Params cxl{};
        os << "cxl tier         : " << tierFrames
           << " frames/socket, load "
           << toMicroseconds(cxl.load4k()) << " us, store "
           << toMicroseconds(cxl.store4k())
           << " us, admit-on-miss, ktierd period "
           << toMicroseconds(tier::Ktierd::wakePeriod) / 1000.0
           << " ms, " << tier::Ktierd::maxBatch
           << " frames/pass, watermarks " << cxl.lowWatermarkFrac << "/"
           << cxl.highWatermarkFrac << '\n';
    }
    return os.str();
}

} // namespace hwdp::system
