/**
 * @file
 * Aligned-table printing for the bench harness.
 *
 * Every figure/table bench prints its rows through this so the
 * regenerated output looks uniform and is easy to diff against
 * EXPERIMENTS.md.
 */

#ifndef HWDP_METRICS_REPORT_HH
#define HWDP_METRICS_REPORT_HH

#include <string>
#include <vector>

namespace hwdp::os {
class KernelExec;
}

namespace hwdp::metrics {

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Add a row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience for mixed numeric rows. */
    static std::string num(double v, int precision = 2);
    static std::string pct(double fraction, int precision = 1);

    /** Render with aligned columns to stdout. */
    void print() const;

    /** Render to a string (tests use this). */
    std::string toString() const;

  private:
    std::vector<std::string> hdr;
    std::vector<std::vector<std::string>> rows;
};

/** Print a section banner for a figure/table reproduction. */
void banner(const std::string &title, const std::string &subtitle = "");

/**
 * Per-KernelCostCat pollution observability: one row per category
 * that issued any pollution, with the cache tag-array probes and
 * branch-predictor updates it caused, plus a total row. This is the
 * simulator-hot-path work the batched pollution engine streams, so
 * benches print it next to their timing numbers to show where the
 * probes come from.
 */
Table pollutionProbeTable(const os::KernelExec &kexec);

/**
 * One checkpoint operation as seen by a bench: a save or restore of a
 * warmed machine. ticksSkipped is the simulated time the blob
 * carries — the warmup a forked run does not re-simulate.
 */
struct CheckpointRow
{
    std::string label; ///< Family key (e.g. "fio osdp t4").
    std::string op;    ///< "save" or "restore".
    std::uint64_t blobBytes = 0;
    std::uint64_t ticksSkipped = 0;
};

/**
 * Checkpoint observability for the warm-fork benches: one row per
 * save/restore with the blob size and the warmed simulated time each
 * fork skips, plus a total row. Host-side only — never part of
 * dumpMachineStats.
 */
Table checkpointTable(const std::vector<CheckpointRow> &ops);

} // namespace hwdp::metrics

#endif // HWDP_METRICS_REPORT_HH
