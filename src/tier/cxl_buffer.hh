/**
 * @file
 * CXL-linked memory-buffer tier (ROADMAP item 3, per LMB).
 *
 * A per-socket, capacity-bounded 4 KB frame store sitting in front of
 * the socket-local NVMe devices. A page miss probes the buffer first:
 * a hit is served with a sub-microsecond CXL.mem load and no NVMe
 * command at all — on the fault fast path that is one inline hop
 * instead of the five-event SQ/SSD/CQ chain. Misses fetch from the
 * SSD and (policy permitting) install into the buffer; capacity
 * pressure evicts cold frames back to the SSD (clean drop / dirty
 * writeback) via the ktierd daemon.
 *
 * Frames are keyed by (block-layer device index, LBA) — the same
 * coordinates every paging mode uses to name a backing page — so the
 * SMU, the software SMU and the OSDP fault path all resolve the same
 * cached copy. The frame map is flat: per device, fixed LBA chunks of
 * one flag byte per LBA plus a presence bitmap, allocated only for the
 * spans that hold a frame, so a probe is a short search over chunk
 * bases and a walk in (device, LBA) order is a bitmap scan. The
 * latency profile is decomposed like SsdProfile: command packetization
 * + buffer-DRAM media access + 4 KB link transfer.
 */

#ifndef HWDP_TIER_CXL_BUFFER_HH
#define HWDP_TIER_CXL_BUFFER_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/sim_object.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::tier {

class CxlBuffer : public sim::SimObject
{
  public:
    struct Params
    {
        /** Capacity in 4 KB frames. */
        std::uint64_t frames = 16 * 1024;

        /**
         * Latency profile: load ~0.68 us, store ~0.73 us against the
         * Z-SSD's 10.9 us unloaded read.
         */
        Tick cmdLatency = nanoseconds(80.0);
        Tick mediaRead = nanoseconds(350.0);
        Tick mediaWrite = nanoseconds(400.0);
        Tick xfer4k = nanoseconds(250.0);

        /** ktierd starts evicting above high, stops below low. */
        double highWatermarkFrac = 0.90;
        double lowWatermarkFrac = 0.75;

        Tick load4k() const { return cmdLatency + mediaRead + xfer4k; }
        Tick store4k() const { return cmdLatency + mediaWrite + xfer4k; }
    };

    CxlBuffer(std::string name, sim::EventQueue &eq, const Params &p);

    struct LoadResult
    {
        bool hit = false;
        Tick latency = 0;
    };

    /**
     * Probe for (dev, lba). A hit marks the frame referenced and
     * returns the load latency; the caller completes the fault without
     * any NVMe command. An injected load error (tier_load_error) drops
     * a clean frame — the SSD still holds the data, so the caller
     * falls back to a device fetch — while a dirty frame, whose only
     * copy lives here, is retried once at doubled latency.
     */
    LoadResult tryLoad(unsigned dev, Lba lba);

    /**
     * Install (dev, lba) after an SSD fetch. Returns false when the
     * buffer is full (the caller kicks ktierd; eviction is never
     * performed synchronously on the fault path) or when the
     * tier_full_window fault site fires. Re-admitting a resident frame
     * just refreshes its referenced/dirty bits.
     */
    bool admit(unsigned dev, Lba lba, bool dirty);

    /**
     * Writeback absorption: a background write whose target frame is
     * resident is retired in the buffer (marked dirty) at store
     * latency instead of travelling to the SSD. Returns false — write
     * around, no allocation — when the frame is absent, so WAL-style
     * streaming writes pass through untouched.
     */
    bool absorbWrite(unsigned dev, Lba lba, Tick *latency);

    bool contains(unsigned dev, Lba lba) const;
    void invalidate(unsigned dev, Lba lba);

    std::uint64_t capacity() const { return prm.frames; }
    std::uint64_t occupancy() const { return nResident; }
    std::uint64_t occupancyHighWater() const
    {
        return statHighWater.value();
    }
    bool aboveHigh() const
    {
        return static_cast<double>(occupancy()) >
               prm.highWatermarkFrac * static_cast<double>(capacity());
    }
    bool aboveLow() const
    {
        return static_cast<double>(occupancy()) >
               prm.lowWatermarkFrac * static_cast<double>(capacity());
    }

    const Params &params() const { return prm; }

    // ---- Eviction (driven by ktierd) --------------------------------
    struct Victim
    {
        bool valid = false;
        unsigned dev = 0;
        Lba lba = 0;
        bool dirty = false;
    };

    /**
     * Clock scan from the cursor: referenced frames get a second
     * chance, the first unreferenced frame not under writeback is the
     * victim. Bounded to one sweep; invalid when everything is
     * referenced or being written.
     */
    Victim pickVictim();

    /** Evict a clean victim: the SSD copy is current, just drop it. */
    void dropClean(unsigned dev, Lba lba);

    /**
     * Start writing a dirty victim back: the frame stays loadable
     * (writing) and its dirty bit is captured by the write. A store
     * absorbed while the write is in flight re-dirties it, in which
     * case finishWriteback() keeps the frame instead of dropping it.
     */
    void beginWriteback(unsigned dev, Lba lba);
    void finishWriteback(unsigned dev, Lba lba);

    /**
     * Capacity-pressure notification (wired to ktierd's kick, like
     * the free-page queue's dry hook to kpoold): fired when an admit
     * is rejected or pushes occupancy above the high watermark.
     */
    void setPressureHook(std::function<void()> fn)
    {
        pressureHook = std::move(fn);
    }

    // ---- Fault-injection hooks (testing::FaultPlan) -----------------
    void setLoadErrorHook(std::function<bool()> fn)
    {
        loadErrorHook = std::move(fn);
    }
    void setFullWindowHook(std::function<bool()> fn)
    {
        fullWindowHook = std::move(fn);
    }

    /** Audit/test iteration in key order: fn(dev, lba, dirty). */
    void forEachEntry(
        const std::function<void(unsigned, Lba, bool)> &fn) const;

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t admits() const { return statAdmits.value(); }
    std::uint64_t admitRejects() const { return statRejects.value(); }
    std::uint64_t evictsClean() const { return statEvictClean.value(); }
    std::uint64_t evictsDirty() const { return statEvictDirty.value(); }
    std::uint64_t writesAbsorbed() const { return statAbsorbed.value(); }
    std::uint64_t loadErrors() const { return statLoadErrors.value(); }

    /** Checkpoint the frame map and clock cursor. */
    void serialize(sim::Serializer &s);

  private:
    /** Per-frame flags; the checkpoint carries dirty and referenced. */
    static constexpr std::uint8_t dirtyBit = 1;
    static constexpr std::uint8_t referencedBit = 2;
    static constexpr std::uint8_t writingBit = 4;

    /** LBAs per chunk of the frame map. */
    static constexpr unsigned chunkShift = 10;
    static constexpr std::uint64_t chunkFrames = std::uint64_t(1)
                                                 << chunkShift;

    /** One chunk of a device's LBA space; freed when it empties. */
    struct Chunk
    {
        std::uint64_t resident = 0;
        std::array<std::uint64_t, chunkFrames / 64> present{};
        std::array<std::uint8_t, chunkFrames> flags{};

        bool has(unsigned off) const
        {
            return (present[off >> 6] >> (off & 63)) & 1;
        }
        /** First resident offset >= @p from, or chunkFrames. */
        unsigned nextFrom(unsigned from) const;
    };

    /** A device's chunks, sorted by base LBA (a chunkFrames multiple). */
    struct Device
    {
        std::vector<Lba> bases;
        std::vector<std::unique_ptr<Chunk>> chunks;

        /** Index of the first chunk whose base is >= @p base. */
        std::size_t firstAtOrAbove(Lba base) const;
    };

    /** A resident frame's place in (device, LBA) order. */
    struct Pos
    {
        unsigned dev = 0;
        std::size_t chunk = 0;
        unsigned off = 0;
    };

    Params prm;
    /** Indexed by device; walked in key order for clock and checkpoint. */
    std::vector<Device> devices;
    std::uint64_t nResident = 0;
    std::uint64_t clockCursor = 0;

    std::function<void()> pressureHook;
    std::function<bool()> loadErrorHook;
    std::function<bool()> fullWindowHook;

    sim::Counter statHits;
    sim::Counter statMisses;
    sim::Counter statAdmits;
    sim::Counter statRejects;
    sim::Counter statEvictClean;
    sim::Counter statEvictDirty;
    sim::Counter statAbsorbed;
    sim::Counter statLoadErrors;
    sim::Value statOccupancy;
    sim::Counter statHighWater;

    static std::uint64_t key(unsigned dev, Lba lba)
    {
        return (static_cast<std::uint64_t>(dev) << 48) | lba;
    }
    static unsigned devOf(std::uint64_t k)
    {
        return static_cast<unsigned>(k >> 48);
    }
    static Lba lbaOf(std::uint64_t k)
    {
        return k & ((std::uint64_t(1) << 48) - 1);
    }
    static Lba chunkBase(Lba lba) { return lba >> chunkShift << chunkShift; }

    /** Flags of resident frame (dev, lba), or nullptr. */
    std::uint8_t *find(unsigned dev, Lba lba) const;
    /** Make (dev, lba), known absent, resident with @p flags. */
    void insert(unsigned dev, Lba lba, std::uint8_t flags);
    /** Drop resident frame (dev, lba), freeing its chunk if emptied. */
    void erase(unsigned dev, Lba lba);

    /** The first resident frame at or after key @p k; false: none. */
    bool seek(std::uint64_t k, Pos &p) const;
    /** Step @p p to the next resident frame; false: none. */
    bool advance(Pos &p) const;
    std::uint64_t keyAt(const Pos &p) const
    {
        return key(p.dev, devices[p.dev].bases[p.chunk] + p.off);
    }
    std::uint8_t &flagsAt(const Pos &p) const
    {
        return devices[p.dev].chunks[p.chunk]->flags[p.off];
    }
};

} // namespace hwdp::tier

#endif // HWDP_TIER_CXL_BUFFER_HH
