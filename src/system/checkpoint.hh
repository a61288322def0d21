/**
 * @file
 * Versioned machine checkpoints: snapshot/restore of warmed machines.
 *
 * A checkpoint is the System's full logical state behind a small
 * self-identifying header:
 *
 *   [magic u32][version u32][config hash u64][tick u64]
 *   [System::serialize body]
 *   [logical-state hash u64]
 *
 * The config hash binds a blob to the machine *shape* it was saved
 * from (paging mode, topology, memory, device profile, SMU geometry,
 * seed) — restoring onto a differently configured machine is rejected
 * up front with a readable error instead of failing somewhere deep in
 * a section check.
 *
 * The trailing logical-state hash is the same FNV fold the
 * MachineDiffer computes (testing/logical_state.hh). restore()
 * re-walks the restored machine and compares, so a restore that
 * silently produced a different logical memory-management state fails
 * loudly at restore time, not in a downstream measurement.
 *
 * Protocol (the warm-fork sweep):
 *   save:    boot → start → run warmup to completion → save()
 *            [quiesces internally] → resumeKthreads() → keep running
 *   restore: boot the SAME recipe (config, files, mappings, threads;
 *            never start()) → restore() → resumeKthreads() → add
 *            measurement threads → run
 */

#ifndef HWDP_SYSTEM_CHECKPOINT_HH
#define HWDP_SYSTEM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace hwdp::system {

class System;
struct MachineConfig;

/** What a save/restore did, for metrics::checkpointTable. */
struct CheckpointStats
{
    std::uint64_t blobBytes = 0;
    /** Simulated time captured in the blob. */
    Tick tick = 0;
    /** Logical-state provenance hash (footer). */
    std::uint64_t logicalHash = 0;
};

class Checkpoint
{
  public:
    /** 'HDPC' little-endian. */
    static constexpr std::uint32_t magicWord = 0x43504448;
    /**
     * v7: no "hwdpossupport" section. The addrspace sections already
     * check every VMA's range and fast-mmap flag, and kpted scans the
     * VMAs that carry the flag. v1-v6 blobs are rejected up front.
     *
     * v6: the LRU lists write each frame as its 32-bit link index, the
     * multi-socket kernel section has no placement cursor (placement
     * is first-touch only), and the config hash no longer folds in
     * the reserved frames, PWC size, free-queue count or pollution
     * switch, which are constants now.
     *
     * v5: each fact once, and no empty records. The page cache has no
     * section (a load rebuilds it from the frames flagged
     * inPageCache); a file's block map is its extent runs, not one LBA
     * per page; cache tag words, TLB entries and frame records go out
     * as a presence bitmap plus the records that differ from an empty
     * slot (sim::Serializer::sparse).
     *
     * v4 moved every registered stat into one trailing "stats"
     * section; v3 added CXL-tier state (per-socket buffer contents,
     * clock cursors) with tierMode in the config hash via describe();
     * v2 added translation-reach state (compound-page metadata,
     * kcoalesced) with the page mode in the hash.
     */
    static constexpr std::uint32_t formatVersion = 7;

    /**
     * Quiesce @p sys and serialize it into a blob. The caller resumes
     * with sys.resumeKthreads() (also on the straight path, so both
     * sides re-arm timers identically). Throws sim::SerializeError
     * when the machine cannot quiesce (running threads, in-flight
     * work).
     */
    static std::vector<std::uint8_t> save(System &sys,
                                          CheckpointStats *st = nullptr);

    /**
     * Apply @p blob to @p sys, which must be built by the same boot
     * recipe as the saved machine and never started. The blob is read
     * in place, never copied or changed. Verifies magic, version,
     * config hash, every structural check in the body, and the
     * trailing logical-state hash. Leaves the machine live (started)
     * with stopped kthreads; call sys.resumeKthreads() to continue.
     */
    static void restore(System &sys, const std::vector<std::uint8_t> &blob,
                        CheckpointStats *st = nullptr);

    /** save() + write the blob to @p path. */
    static void saveFile(System &sys, const std::string &path,
                         CheckpointStats *st = nullptr);

    /**
     * Restore from @p path. Returns false when the file does not
     * exist (the warm-fork caller then falls back to a cold warmup);
     * a present-but-invalid file throws.
     */
    static bool restoreFile(System &sys, const std::string &path,
                            CheckpointStats *st = nullptr);

    /** The shape hash bound into every blob. */
    static std::uint64_t configHash(const MachineConfig &cfg);
};

} // namespace hwdp::system

#endif // HWDP_SYSTEM_CHECKPOINT_HH
