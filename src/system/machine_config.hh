/**
 * @file
 * Machine configuration: everything a System needs to build itself.
 *
 * Defaults model the evaluation machine (Table II): a 2.8 GHz Xeon
 * E5-2640 v3 with 8 physical / 16 logical cores and a Samsung SZ985
 * Z-SSD — with memory and dataset sizes scaled down by a constant
 * factor (the experiments are ratio-driven; see DESIGN.md).
 */

#ifndef HWDP_SYSTEM_MACHINE_CONFIG_HH
#define HWDP_SYSTEM_MACHINE_CONFIG_HH

#include <string>

#include "core/smu.hh"
#include "cpu/thread_context.hh"
#include "os/kernel.hh"

namespace hwdp::system {

/** How page misses on fast-mmap areas are handled. */
enum class PagingMode {
    osdp,  ///< Conventional OS demand paging (the baseline).
    hwdp,  ///< The paper's hardware SMU.
    swsmu, ///< Software-emulated SMU (Figure 17's SW-only).
};

const char *pagingModeName(PagingMode mode);

const char *pageModeName(PageMode mode);

/** Backing-store tiering in front of the NVMe devices. */
enum class TierMode {
    off, ///< NVMe only — byte-identical to the pre-tier simulator.
    cxl, ///< Per-socket CXL-linked memory buffer fronting the local SSDs.
};

const char *tierModeName(TierMode mode);

/**
 * The values a caller sets to shape a machine, each in one place. A
 * value stays only while a bench or suite workload sets it (DESIGN.md
 * §4); calibration constants live beside the model that charges them,
 * and System derives the rest. Every field feeds Checkpoint::configHash
 * or is host-only (quiet, core.memQuantum), so a new field joins
 * Checkpoint.ConfigHashSeparatesEverySettableValue's table.
 */
struct MachineConfig
{
    PagingMode mode = PagingMode::osdp;

    // ---- CPU ----------------------------------------------------------
    unsigned nLogical = 16;
    unsigned nPhysical = 8;
    cpu::CoreParams core{};

    // ---- Topology -------------------------------------------------------
    /**
     * CPU sockets in the machine. Each socket groups an equal share of
     * the logical cores, a contiguous span of DRAM, its own SMU (or
     * SW-SMU) with PMSHR + free-page queues, and its own NVMe
     * device(s) behind the local host controller — the paper's SMU is
     * explicitly per-socket (Section III). 1 (the default) builds a
     * machine byte-identical to the pre-NUMA simulator: same object
     * names, same RNG fork order, same stats dump, same checkpoint
     * blob. The PTE's 3-bit socket-id field caps this at 8. Faults
     * place frames first-touch; a remote access pays
     * cpu::numaRemoteExtraCycles and a remote SMU request
     * core::smuCosts.remoteRequest.
     */
    unsigned sockets = 1;

    unsigned coresPerSocket() const { return nLogical / sockets; }

    // ---- Translation reach ----------------------------------------------
    /**
     * Huge pages and contiguity-aware translation. off (the default)
     * builds a machine byte-identical to the pre-huge-page simulator:
     * same stats dump, same checkpoint blob. thp enables fault-time
     * 2 MB transparent huge pages on demand-paged (non fast-mmap)
     * VMAs; napot stamps 64 KB NAPOT reach onto contiguous runs of
     * demand-paged 4 KB file pages (HWDP keeps its 4 KB miss
     * granularity, the TLB gains reach); coalesce is napot + thp plus
     * the kcoalesced daemon promoting 4 KB runs that landed
     * contiguously to 2 MB leaves in the background.
     */
    PageMode pageMode = PageMode::off;

    // ---- Memory ---------------------------------------------------------
    /**
     * Allocatable DRAM in 4 KB frames (default 512 MB scaled), above
     * mem::PhysMem::systemReserved frames the kernel keeps.
     */
    std::uint64_t memFrames = 128 * 1024;

    // ---- Storage ---------------------------------------------------------
    std::string ssdProfile = "zssd";

    /**
     * Block devices on socket 0 (the PTE's 3-bit device-id field
     * supports up to 8 per SMU, Section III-B).
     */
    unsigned nDevices = 1;

    // ---- CXL memory-buffer tier (ROADMAP item 3, LMB) --------------------
    /**
     * off (the default) builds a machine byte-identical to the
     * pre-tier simulator: same object names, same stats dump, same
     * describe() text. cxl puts a per-socket CXL-linked memory buffer
     * in front of the socket-local NVMe devices: page misses probe the
     * buffer first and a hit is served with a sub-microsecond load and
     * no NVMe command at all; misses fetch from the SSD and install
     * into the buffer, with capacity pressure evicting cold frames
     * back to the SSD (clean drop / dirty writeback) via ktierd.
     */
    TierMode tierMode = TierMode::off;

    /**
     * Per-socket tier capacity in 4 KB frames (default 64 MB scaled).
     * The latency profile and watermarks are tier::CxlBuffer::Params
     * defaults.
     */
    std::uint64_t tierFrames = 16 * 1024;

    // ---- HWDP ------------------------------------------------------------
    core::Smu::Params smu{};

    /**
     * Section V extension: convert hardware stalls longer than this
     * into a timeout exception + context switch. 0 disables (the
     * paper's base design).
     */
    Tick hwStallTimeout = 0;
    bool kpooldEnabled = true;
    Tick kpooldPeriod = milliseconds(4.0);
    std::uint64_t kpooldBatch = 1024;
    /** Paper: 1 s against 32 GB; scaled with the memory size. */
    Tick kptedPeriod = milliseconds(25.0);
    bool kptedGuidedScan = true;

    // ---- Simulation ---------------------------------------------------------
    std::uint64_t seed = 42;
    bool quiet = true;

    /**
     * Last logical cores host the kernel threads by default; small
     * machines share core 0 with the workload.
     */
    unsigned kptedCore() const { return nLogical - 1; }
    unsigned kpooldCore() const
    {
        return nLogical >= 2 ? nLogical - 2 : 0;
    }
    unsigned reclaimCore() const
    {
        return nLogical >= 3 ? nLogical - 3 : 0;
    }
    unsigned kcoalesceCore() const
    {
        // Small machines co-locate with kpoold, whose batches are
        // bounded — kpted can monopolize its core under sustained
        // fault traffic, and core 0 belongs to the workload.
        return nLogical >= 5 ? nLogical - 4 : kpooldCore();
    }
    unsigned ktierdCore() const
    {
        // Same reasoning as kcoalesced: bounded batches share kpoold's
        // core on small machines rather than kpted's or core 0.
        return nLogical >= 6 ? nLogical - 5 : kpooldCore();
    }

    /** Table II-style configuration dump. */
    std::string describe() const;
};

} // namespace hwdp::system

#endif // HWDP_SYSTEM_MACHINE_CONFIG_HH
