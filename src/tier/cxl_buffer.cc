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

unsigned
CxlBuffer::Chunk::nextFrom(unsigned from) const
{
    for (unsigned w = from >> 6; w < present.size(); ++w) {
        std::uint64_t bits = present[w];
        if (w == from >> 6)
            bits &= ~std::uint64_t(0) << (from & 63);
        if (bits)
            return w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
    }
    return chunkFrames;
}

std::size_t
CxlBuffer::Device::firstAtOrAbove(Lba base) const
{
    return static_cast<std::size_t>(
        std::lower_bound(bases.begin(), bases.end(), base) - bases.begin());
}

std::uint8_t *
CxlBuffer::find(unsigned dev, Lba lba) const
{
    if (dev >= devices.size())
        return nullptr;
    const Device &d = devices[dev];
    const Lba base = chunkBase(lba);
    const std::size_t at = d.firstAtOrAbove(base);
    if (at == d.bases.size() || d.bases[at] != base)
        return nullptr;
    Chunk &c = *d.chunks[at];
    const auto off = static_cast<unsigned>(lba - base);
    return c.has(off) ? &c.flags[off] : nullptr;
}

void
CxlBuffer::insert(unsigned dev, Lba lba, std::uint8_t flags)
{
    if (dev >= devices.size())
        devices.resize(dev + 1);
    Device &d = devices[dev];
    const Lba base = chunkBase(lba);
    const std::size_t at = d.firstAtOrAbove(base);
    if (at == d.bases.size() || d.bases[at] != base) {
        const auto pos = static_cast<std::ptrdiff_t>(at);
        d.bases.insert(d.bases.begin() + pos, base);
        d.chunks.insert(d.chunks.begin() + pos, std::make_unique<Chunk>());
    }
    Chunk &c = *d.chunks[at];
    const auto off = static_cast<unsigned>(lba - base);
    c.present[off >> 6] |= std::uint64_t(1) << (off & 63);
    c.flags[off] = flags;
    ++c.resident;
    ++nResident;
}

void
CxlBuffer::erase(unsigned dev, Lba lba)
{
    Device &d = devices[dev];
    const Lba base = chunkBase(lba);
    const std::size_t at = d.firstAtOrAbove(base);
    Chunk &c = *d.chunks[at];
    const auto off = static_cast<unsigned>(lba - base);
    c.present[off >> 6] &= ~(std::uint64_t(1) << (off & 63));
    c.flags[off] = 0;
    --nResident;
    if (--c.resident == 0) {
        const auto pos = static_cast<std::ptrdiff_t>(at);
        d.bases.erase(d.bases.begin() + pos);
        d.chunks.erase(d.chunks.begin() + pos);
    }
}

bool
CxlBuffer::seek(std::uint64_t k, Pos &p) const
{
    Lba lba = lbaOf(k);
    for (unsigned dev = devOf(k); dev < devices.size(); ++dev, lba = 0) {
        const Device &d = devices[dev];
        const Lba base = chunkBase(lba);
        for (std::size_t c = d.firstAtOrAbove(base); c < d.chunks.size();
             ++c) {
            const unsigned from =
                d.bases[c] == base ? static_cast<unsigned>(lba - base) : 0;
            const unsigned off = d.chunks[c]->nextFrom(from);
            if (off != chunkFrames) {
                p = Pos{dev, c, off};
                return true;
            }
        }
    }
    return false;
}

bool
CxlBuffer::advance(Pos &p) const
{
    // Every chunk in the map holds a frame, so past the current chunk
    // the next frame is the first one of the next chunk.
    const unsigned off = devices[p.dev].chunks[p.chunk]->nextFrom(p.off + 1);
    if (off != chunkFrames) {
        p.off = off;
        return true;
    }
    if (p.chunk + 1 < devices[p.dev].chunks.size()) {
        ++p.chunk;
    } else {
        do {
            if (++p.dev == devices.size())
                return false;
        } while (devices[p.dev].chunks.empty());
        p.chunk = 0;
    }
    p.off = devices[p.dev].chunks[p.chunk]->nextFrom(0);
    return true;
}

CxlBuffer::LoadResult
CxlBuffer::tryLoad(unsigned dev, Lba lba)
{
    std::uint8_t *f = find(dev, lba);
    if (!f) {
        ++statMisses;
        return {};
    }
    if (loadErrorHook && loadErrorHook()) {
        ++statLoadErrors;
        if (!(*f & (dirtyBit | writingBit))) {
            // The SSD copy is current: drop the frame and let the
            // caller fetch it from the device.
            erase(dev, lba);
            ++statMisses;
            return {};
        }
        // Only copy of the data — retry once at doubled latency.
        *f |= referencedBit;
        ++statHits;
        return {true, 2 * prm.load4k()};
    }
    *f |= referencedBit;
    ++statHits;
    return {true, prm.load4k()};
}

bool
CxlBuffer::admit(unsigned dev, Lba lba, bool dirty)
{
    if (std::uint8_t *f = find(dev, lba)) {
        *f |= referencedBit | (dirty ? dirtyBit : 0);
        return true;
    }
    if (nResident >= prm.frames || (fullWindowHook && fullWindowHook())) {
        ++statRejects;
        if (pressureHook)
            pressureHook();
        return false;
    }
    insert(dev, lba, referencedBit | (dirty ? dirtyBit : 0));
    if (nResident > statHighWater.value())
        statHighWater.set(nResident);
    ++statAdmits;
    if (aboveHigh() && pressureHook)
        pressureHook();
    return true;
}

bool
CxlBuffer::absorbWrite(unsigned dev, Lba lba, Tick *latency)
{
    std::uint8_t *f = find(dev, lba);
    if (!f)
        return false;
    *f |= dirtyBit | referencedBit;
    if (latency)
        *latency = prm.store4k();
    ++statAbsorbed;
    return true;
}

bool
CxlBuffer::contains(unsigned dev, Lba lba) const
{
    return find(dev, lba) != nullptr;
}

void
CxlBuffer::invalidate(unsigned dev, Lba lba)
{
    if (find(dev, lba))
        erase(dev, lba);
}

CxlBuffer::Victim
CxlBuffer::pickVictim()
{
    if (nResident == 0)
        return {};
    // One bounded sweep in (device, LBA) order from the cursor: every
    // frame is visited at most once, giving referenced frames their
    // second chance.
    std::uint64_t budget = nResident;
    Pos p;
    bool at = seek(clockCursor, p);
    while (budget-- > 0) {
        if (!at)
            at = seek(0, p);
        std::uint8_t &f = flagsAt(p);
        if (f & writingBit) {
            at = advance(p);
        } else if (f & referencedBit) {
            f &= ~referencedBit;
            at = advance(p);
        } else {
            const std::uint64_t k = keyAt(p);
            clockCursor = k + 1;
            return {true, devOf(k), lbaOf(k), (f & dirtyBit) != 0};
        }
        if (at)
            clockCursor = keyAt(p);
    }
    return {};
}

void
CxlBuffer::dropClean(unsigned dev, Lba lba)
{
    std::uint8_t *f = find(dev, lba);
    if (!f || (*f & (dirtyBit | writingBit)))
        panic(name(), ": dropClean on a missing/dirty/writing frame");
    erase(dev, lba);
    ++statEvictClean;
}

void
CxlBuffer::beginWriteback(unsigned dev, Lba lba)
{
    std::uint8_t *f = find(dev, lba);
    if (!f || !(*f & dirtyBit) || (*f & writingBit))
        panic(name(), ": beginWriteback on a missing/clean/writing frame");
    // The write captures the current data; a store absorbed while it
    // is in flight re-dirties the frame and finishWriteback keeps it.
    *f = static_cast<std::uint8_t>((*f & ~dirtyBit) | writingBit);
}

void
CxlBuffer::finishWriteback(unsigned dev, Lba lba)
{
    std::uint8_t *f = find(dev, lba);
    if (!f || !(*f & writingBit))
        panic(name(), ": finishWriteback on a missing/idle frame");
    *f &= ~writingBit;
    ++statEvictDirty;
    if (!(*f & dirtyBit))
        erase(dev, lba);
}

void
CxlBuffer::forEachEntry(
    const std::function<void(unsigned, Lba, bool)> &fn) const
{
    Pos p;
    for (bool at = seek(0, p); at; at = advance(p)) {
        const std::uint64_t k = keyAt(p);
        fn(devOf(k), lbaOf(k), (flagsAt(p) & dirtyBit) != 0);
    }
}

void
CxlBuffer::serialize(sim::Serializer &s)
{
    s.section("cxl_buffer");
    s.check(prm.frames, "tier capacity");
    // The frame map as parallel vectors of keys and flags in key
    // order: restore targets boot empty, so the count is blob-carried
    // state, not boot structure.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint8_t> flags;
    if (s.saving()) {
        keys.reserve(nResident);
        flags.reserve(nResident);
        Pos p;
        for (bool at = seek(0, p); at; at = advance(p)) {
            const std::uint8_t f = flagsAt(p);
            if (f & writingBit)
                throw sim::SerializeError(
                    "cxl_buffer: frame under writeback at checkpoint "
                    "(machine not quiesced)");
            keys.push_back(keyAt(p));
            flags.push_back(f & (dirtyBit | referencedBit));
        }
    }
    s.io(keys);
    s.io(flags);
    if (s.loading()) {
        if (keys.size() != flags.size())
            throw sim::SerializeError("cxl_buffer: corrupt frame map");
        devices.clear();
        nResident = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (i > 0 && keys[i] <= keys[i - 1])
                throw sim::SerializeError(
                    "cxl_buffer: frame map keys out of order");
            insert(devOf(keys[i]), lbaOf(keys[i]),
                   flags[i] & (dirtyBit | referencedBit));
        }
    }
    s.io(clockCursor);
}

} // namespace hwdp::tier
