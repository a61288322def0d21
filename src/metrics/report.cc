#include "metrics/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "os/kernel_phases.hh"
#include "sim/logging.hh"

namespace hwdp::metrics {

Table::Table(std::vector<std::string> headers) : hdr(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != hdr.size())
        panic("report table: row width ", cells.size(),
              " != header width ", hdr.size());
    rows.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

std::string
Table::toString() const
{
    std::vector<std::size_t> w(hdr.size());
    for (std::size_t c = 0; c < hdr.size(); ++c)
        w[c] = hdr[c].size();
    for (const auto &r : rows) {
        for (std::size_t c = 0; c < r.size(); ++c)
            w[c] = std::max(w[c], r[c].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << "  " << cells[c];
            for (std::size_t p = cells[c].size(); p < w[c]; ++p)
                os << ' ';
        }
        os << '\n';
    };
    emit(hdr);
    std::size_t total = 0;
    for (std::size_t c = 0; c < w.size(); ++c)
        total += w[c] + 2;
    os << "  ";
    for (std::size_t i = 2; i < total; ++i)
        os << '-';
    os << '\n';
    for (const auto &r : rows)
        emit(r);
    return os.str();
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

Table
pollutionProbeTable(const os::KernelExec &kexec)
{
    Table t({"category", "tag probes", "bp updates"});
    auto n_cats = static_cast<unsigned>(os::KernelCostCat::numCats);
    for (unsigned c = 0; c < n_cats; ++c) {
        auto cat = static_cast<os::KernelCostCat>(c);
        std::uint64_t probes = kexec.pollutionProbes(cat);
        std::uint64_t branches = kexec.pollutionBranchUpdates(cat);
        if (probes == 0 && branches == 0)
            continue;
        t.addRow({os::kernelCostCatName(cat), std::to_string(probes),
                  std::to_string(branches)});
    }
    t.addRow({"total", std::to_string(kexec.totalPollutionProbes()),
              std::to_string(kexec.totalPollutionBranchUpdates())});
    return t;
}

Table
checkpointTable(const std::vector<CheckpointRow> &ops)
{
    Table t({"checkpoint", "op", "blob bytes", "ticks skipped"});
    std::uint64_t bytes = 0, ticks = 0, restores = 0;
    for (const CheckpointRow &r : ops) {
        t.addRow({r.label, r.op, std::to_string(r.blobBytes),
                  std::to_string(r.ticksSkipped)});
        if (r.op == "restore") {
            ++restores;
            ticks += r.ticksSkipped;
        }
        bytes += r.blobBytes;
    }
    t.addRow({"total", std::to_string(restores) + " restores",
              std::to_string(bytes), std::to_string(ticks)});
    return t;
}

void
banner(const std::string &title, const std::string &subtitle)
{
    std::printf("\n==== %s ====\n", title.c_str());
    if (!subtitle.empty())
        std::printf("     %s\n", subtitle.c_str());
    std::printf("\n");
}

} // namespace hwdp::metrics
