#include "tier/cxl_buffer.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::tier {

CxlBuffer::CxlBuffer(std::string name, sim::EventQueue &eq,
                     const Params &p)
    : sim::SimObject(std::move(name), eq), prm(p),
      statHits(stats(), "hits", "misses served from the buffer"),
      statMisses(stats(), "misses", "probes that fell through to the SSD"),
      statAdmits(stats(), "admits", "frames installed"),
      statRejects(stats(), "admit_rejects",
                  "admissions refused (buffer full)"),
      statEvictClean(stats(), "evicts_clean",
                     "clean frames dropped by ktierd"),
      statEvictDirty(stats(), "evicts_dirty",
                     "dirty frames written back by ktierd"),
      statAbsorbed(stats(), "writes_absorbed",
                   "background writes retired in-buffer"),
      statLoadErrors(stats(), "load_errors", "injected CXL load failures"),
      statOccupancy(stats(), "occupancy", "frames resident",
                    [this] { return occupancy(); }),
      statHighWater(stats(), "occupancy_high_water",
                    "most frames ever resident at once")
{
    if (prm.frames == 0)
        fatal(this->name(), ": zero-capacity tier");
}

CxlBuffer::LoadResult
CxlBuffer::tryLoad(unsigned dev, Lba lba)
{
    auto it = entries.find(key(dev, lba));
    if (it == entries.end()) {
        ++statMisses;
        return {};
    }
    if (loadErrorHook && loadErrorHook()) {
        ++statLoadErrors;
        if (!it->second.dirty && !it->second.writing) {
            // The SSD copy is current: drop the frame and let the
            // caller fetch it from the device.
            entries.erase(it);
            ++statMisses;
            return {};
        }
        // Only copy of the data — retry once at doubled latency.
        it->second.referenced = true;
        ++statHits;
        return {true, 2 * prm.load4k()};
    }
    it->second.referenced = true;
    ++statHits;
    return {true, prm.load4k()};
}

bool
CxlBuffer::admit(unsigned dev, Lba lba, bool dirty)
{
    auto it = entries.find(key(dev, lba));
    if (it != entries.end()) {
        it->second.referenced = true;
        it->second.dirty = it->second.dirty || dirty;
        return true;
    }
    if (entries.size() >= prm.frames ||
        (fullWindowHook && fullWindowHook())) {
        ++statRejects;
        if (pressureHook)
            pressureHook();
        return false;
    }
    entries.emplace(key(dev, lba), Entry{dirty, true, false});
    if (entries.size() > statHighWater.value())
        statHighWater.set(entries.size());
    ++statAdmits;
    if (aboveHigh() && pressureHook)
        pressureHook();
    return true;
}

bool
CxlBuffer::absorbWrite(unsigned dev, Lba lba, Tick *latency)
{
    auto it = entries.find(key(dev, lba));
    if (it == entries.end())
        return false;
    it->second.dirty = true;
    it->second.referenced = true;
    if (latency)
        *latency = prm.store4k();
    ++statAbsorbed;
    return true;
}

bool
CxlBuffer::contains(unsigned dev, Lba lba) const
{
    return entries.count(key(dev, lba)) != 0;
}

void
CxlBuffer::invalidate(unsigned dev, Lba lba)
{
    entries.erase(key(dev, lba));
}

CxlBuffer::Victim
CxlBuffer::pickVictim()
{
    if (entries.empty())
        return {};
    // One bounded sweep: every entry is visited at most once, giving
    // referenced frames their second chance.
    std::size_t budget = entries.size();
    auto it = entries.lower_bound(clockCursor);
    while (budget-- > 0) {
        if (it == entries.end())
            it = entries.begin();
        if (it->second.writing) {
            ++it;
        } else if (it->second.referenced) {
            it->second.referenced = false;
            ++it;
        } else {
            clockCursor = it->first + 1;
            return {true, devOf(it->first), lbaOf(it->first),
                    it->second.dirty};
        }
        if (it != entries.end())
            clockCursor = it->first;
    }
    return {};
}

void
CxlBuffer::dropClean(unsigned dev, Lba lba)
{
    auto it = entries.find(key(dev, lba));
    if (it == entries.end() || it->second.dirty || it->second.writing)
        panic(name(), ": dropClean on a missing/dirty/writing frame");
    entries.erase(it);
    ++statEvictClean;
}

void
CxlBuffer::beginWriteback(unsigned dev, Lba lba)
{
    auto it = entries.find(key(dev, lba));
    if (it == entries.end() || !it->second.dirty || it->second.writing)
        panic(name(), ": beginWriteback on a missing/clean/writing frame");
    // The write captures the current data; a store absorbed while it
    // is in flight re-dirties the frame and finishWriteback keeps it.
    it->second.dirty = false;
    it->second.writing = true;
}

void
CxlBuffer::finishWriteback(unsigned dev, Lba lba)
{
    auto it = entries.find(key(dev, lba));
    if (it == entries.end() || !it->second.writing)
        panic(name(), ": finishWriteback on a missing/idle frame");
    it->second.writing = false;
    ++statEvictDirty;
    if (!it->second.dirty)
        entries.erase(it);
}

void
CxlBuffer::forEachEntry(
    const std::function<void(unsigned, Lba, bool)> &fn) const
{
    for (const auto &[k, e] : entries)
        fn(devOf(k), lbaOf(k), e.dirty);
}

void
CxlBuffer::serialize(sim::Serializer &s)
{
    s.section("cxl_buffer");
    s.check(prm.frames, "tier capacity");
    // The frame map as parallel vectors: restore targets boot empty,
    // so the count is blob-carried state, not boot structure.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint8_t> flags;
    if (s.saving()) {
        keys.reserve(entries.size());
        flags.reserve(entries.size());
        for (const auto &[k, e] : entries) {
            if (e.writing)
                throw sim::SerializeError(
                    "cxl_buffer: frame under writeback at checkpoint "
                    "(machine not quiesced)");
            keys.push_back(k);
            flags.push_back(static_cast<std::uint8_t>(
                (e.dirty << 0) | (e.referenced << 1)));
        }
    }
    s.io(keys);
    s.io(flags);
    if (s.loading()) {
        if (keys.size() != flags.size())
            throw sim::SerializeError("cxl_buffer: corrupt frame map");
        entries.clear();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            entries.emplace(keys[i],
                            Entry{(flags[i] & 1) != 0,
                                  (flags[i] & 2) != 0, false});
        }
    }
    s.io(clockCursor);
}

} // namespace hwdp::tier
