/**
 * @file
 * Differential verification of paging-mode equivalence.
 *
 * The paper's robustness claim (Sections IV-D, VI-A) is that a
 * hardware-handled miss is semantically identical to an OS-handled
 * one. The MachineDiffer checks that claim end-to-end: run the same
 * workload with the same seed on two System configurations (hardware
 * SMU, software-emulated SMU, plain OSDP), quiesce both, snapshot the
 * logical memory-management state of each and compare.
 *
 * The state model and the walk live in testing/logical_state.hh,
 * shared with the checkpointer; this module adds the cross-machine
 * comparison: on mismatch diff() renders a readable first-divergence
 * report naming the page and both sides' states.
 */

#ifndef HWDP_TESTING_MACHINE_DIFFER_HH
#define HWDP_TESTING_MACHINE_DIFFER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "testing/logical_state.hh"

namespace hwdp::system {
class System;
}

namespace hwdp::testing {

struct DiffOptions
{
    /**
     * Also require equal faultsServiced. Exact across modes only for
     * single-threaded, pressure-free runs (coalescing and reclaim
     * timing legitimately perturb the count otherwise).
     */
    bool compareFaultTotals = false;

    /**
     * Compare only the user-visible data surface: per-page dirtiness
     * (the writes the workload made durable), app ops and OOM kills.
     * Residency, sync status and LRU/page-cache bookkeeping are
     * ignored — a 2 MB fault legitimately makes 511 extra pages
     * resident, so cross-pageMode comparisons need this relaxation
     * while staying exact about what the user wrote.
     */
    bool userDataOnly = false;

    /** Divergences rendered into the report before truncation. */
    unsigned maxReports = 8;
};

struct DiffResult
{
    bool equivalent = true;
    unsigned divergences = 0;
    std::string report;
};

/**
 * Bring @p sys to a comparable end state: stop the periodic kthreads,
 * drain the event queue, then perform an untimed kpted-equivalent
 * metadata synchronisation of every hardware-handled PTE using the
 * *guided* upper-level-LBA scan — so a component that fails to mark
 * the upper levels leaves unsynced pages behind for the differ to
 * catch.
 */
void quiesce(system::System &sys);

/** Capture the logical memory-management state of @p sys. */
MachineState snapshot(system::System &sys, const std::string &label);

/** Compare two snapshots; readable first-divergence report on loss. */
DiffResult diff(const MachineState &a, const MachineState &b,
                const DiffOptions &opt = {});

/**
 * Dump every stat group on @p sys's list, in the order the machine
 * built them. Given one seed and one fault plan, two runs of the same
 * configuration must produce byte-identical output (the
 * reproducibility gate).
 */
void dumpMachineStats(system::System &sys, std::ostream &os);

} // namespace hwdp::testing

#endif // HWDP_TESTING_MACHINE_DIFFER_HH
