/**
 * @file
 * Kernel block layer and NVMe driver (the OSDP I/O path).
 *
 * Maintains one interrupt-driven NVMe queue pair per logical core on
 * every attached device — the standard multi-queue layout. Reads
 * issued here complete through interrupt delivery and the block-layer
 * completion path (the 2.5% + 20.6% of device time Figure 3 charges);
 * writeback writes complete through a lighter batched path. This is
 * exactly the machinery the SMU removes from the page-miss data plane.
 */

#ifndef HWDP_OS_BLOCK_LAYER_HH
#define HWDP_OS_BLOCK_LAYER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "os/scheduler.hh"
#include "sim/sim_object.hh"
#include "ssd/ssd_device.hh"

namespace hwdp::os {

class BlockLayer : public sim::SimObject
{
  public:
    /** Completion flavour selects the kernel completion phases. */
    enum class IoClass {
        faultRead,  ///< Demand-paging read: full completion path.
        writeback,  ///< Background write: batched completion path.
        dataRead,   ///< Ordinary file read (same path as faultRead).
        /**
         * ktierd evicting a dirty tier frame to the SSD. Same batched
         * completion path as writeback, but never offered to the tier
         * absorb hook (it is the tier's own traffic).
         */
        tierWriteback,
    };

    BlockLayer(sim::EventQueue &eq, Scheduler &sched,
               std::uint16_t queue_depth = 1024);

    /**
     * Attach a device; creates one kernel queue pair per logical
     * core.
     * @return the block layer's device index.
     */
    unsigned attachDevice(ssd::SsdDevice *dev);

    ssd::SsdDevice &device(unsigned idx) { return *devices[idx].dev; }

    /**
     * Submit a 4 KB I/O on behalf of @p core. The caller charges the
     * submission phases (phases::ioSubmit); this performs the ring
     * operations and doorbell. @p on_complete runs after the kernel
     * completion phases on @p core.
     */
    void submit(unsigned core, unsigned dev_idx, Lba lba, bool write,
                IoClass klass, std::function<void()> on_complete);

    /**
     * CXL tier write absorption (tierMode=cxl). Offered every
     * IoClass::writeback submission; returning true means the tier
     * retired the write in its buffer — no bio is issued, and the
     * completion work runs after the returned store latency without an
     * interrupt. WAL-style streaming writes whose target frame is not
     * resident return false and pass through to the device untouched.
     */
    void setTierAbsorb(
        std::function<bool(unsigned dev_idx, Lba lba, Tick *latency)> fn)
    {
        tierAbsorb = std::move(fn);
    }

    std::uint64_t inflight() const { return pending.size(); }
    std::uint64_t readsSubmitted() const { return statReads.value(); }
    std::uint64_t writesSubmitted() const { return statWrites.value(); }
    std::uint64_t ioRetries() const { return statRetries.value(); }

    /**
     * Checkpoint the cid allocator and counters. Pending bios hold
     * completion closures, so the layer must be drained (quiesced)
     * on both sides; the queue-pair layout is verified.
     */
    void serialize(sim::Serializer &s);

  private:
    struct DeviceState
    {
        ssd::SsdDevice *dev;
        std::vector<std::uint16_t> coreQid; // per logical core
    };

    struct Pending
    {
        unsigned core;
        IoClass klass;
        Lba lba;
        bool write;
        std::function<void()> onComplete;
    };

    Scheduler &sched;
    std::uint16_t qDepth;
    std::vector<DeviceState> devices;
    std::function<bool(unsigned, Lba, Tick *)> tierAbsorb;

    /** Key: (device idx << 32) | (qid << 16) | cid. */
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint16_t nextCid = 0;

    sim::Counter statReads;
    sim::Counter statWrites;
    sim::Counter statCompletions;
    sim::Counter statRetries;

    void onDeviceCompletion(unsigned dev_idx, std::uint16_t qid,
                            const nvme::CompletionEntry &cqe);

    static std::uint64_t key(unsigned dev_idx, std::uint16_t qid,
                             std::uint16_t cid);
};

} // namespace hwdp::os

#endif // HWDP_OS_BLOCK_LAYER_HH
