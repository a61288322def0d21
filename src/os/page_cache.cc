#include "os/page_cache.hh"

#include "os/file_system.hh"
#include "sim/logging.hh"

namespace hwdp::os {

PageCache::PageCache(sim::StatRegistry *reg)
    : grp("pagecache", reg),
      statLookups(grp, "lookups", "page-cache lookups"),
      statHits(grp, "hits", "page-cache lookups that found the page")
{
}

std::uint64_t
PageCache::key(const File &file, std::uint64_t index)
{
    // 24 bits of file id above 40 bits of page index: enough for the
    // largest simulated files by a wide margin.
    return (static_cast<std::uint64_t>(file.id()) << 40) |
           (index & ((1ULL << 40) - 1));
}

Pfn
PageCache::lookup(const File &file, std::uint64_t index) const
{
    ++statLookups;
    Pfn pfn = peek(file, index);
    if (pfn != noFrame)
        ++statHits;
    return pfn;
}

Pfn
PageCache::peek(const File &file, std::uint64_t index) const
{
    auto it = map.find(key(file, index));
    return it == map.end() ? noFrame : it->second;
}

bool
PageCache::contains(const File &file, std::uint64_t index) const
{
    return map.find(key(file, index)) != map.end();
}

void
PageCache::insert(const File &file, std::uint64_t index, Pfn pfn)
{
    auto [it, fresh] = map.emplace(key(file, index), pfn);
    if (!fresh)
        panic("page cache: duplicate insert of ", file.name(), ":", index);
}

void
PageCache::remove(const File &file, std::uint64_t index)
{
    if (map.erase(key(file, index)) != 1)
        panic("page cache: removing absent ", file.name(), ":", index);
}

} // namespace hwdp::os
