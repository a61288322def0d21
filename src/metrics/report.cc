#include "metrics/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/kcoalesced.hh"
#include "cpu/core.hh"
#include "cpu/mmu.hh"
#include "cpu/tlb.hh"
#include "os/kernel.hh"
#include "os/kernel_phases.hh"
#include "sim/logging.hh"
#include "system/system.hh"

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

Table
pagingPathTable(system::System &sys)
{
    std::uint64_t inl_miss = 0, inl_db = 0, ev_db = 0;
    std::uint64_t inl_cpl = 0, ev_cpl = 0;
    for (unsigned s = 0; s < sys.numSockets(); ++s) {
        core::Smu *smu = sys.smuAt(s);
        if (!smu)
            continue;
        inl_miss += smu->inlineMisses();
        const core::NvmeHostController &hc = smu->hostController();
        inl_db += hc.inlineDoorbells();
        ev_db += hc.eventDoorbells();
        inl_cpl += hc.inlineCompletions();
        ev_cpl += hc.eventCompletions();
    }

    std::uint64_t rings = 0, coalesced = 0, fetches = 0;
    std::uint64_t nodes = 0, high_water = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        const ssd::SsdDevice &dev = sys.ssdAt(d);
        rings += dev.doorbellRings();
        coalesced += dev.doorbellsCoalesced();
        fetches += dev.inlineFetches();
        nodes += dev.pooledNodesCreated();
        high_water = std::max(high_water, dev.pooledPendingHighWater());
    }

    Table t({"paging path", "count"});
    t.addRow({"inline fault lookups", std::to_string(inl_miss)});
    t.addRow({"inline nvme doorbells", std::to_string(inl_db)});
    t.addRow({"evented nvme doorbells", std::to_string(ev_db)});
    t.addRow({"inline completions", std::to_string(inl_cpl)});
    t.addRow({"evented completions", std::to_string(ev_cpl)});
    t.addRow({"device doorbell rings", std::to_string(rings)});
    t.addRow({"  coalesced onto a fetch", std::to_string(coalesced)});
    t.addRow({"  coalesce ratio",
              Table::pct(rings ? double(coalesced) / double(rings)
                               : 0.0)});
    t.addRow({"inline device fetches", std::to_string(fetches)});
    t.addRow({"pooled completion nodes", std::to_string(nodes)});
    t.addRow({"  occupancy high-water", std::to_string(high_water)});
    return t;
}

Table
translationReachTable(system::System &sys)
{
    const os::Kernel &kern = sys.kernel();
    std::uint64_t lookups = 0, misses = 0;
    for (unsigned i = 0; i < sys.config().nLogical; ++i) {
        const cpu::Tlb &tlb = sys.core(i).mmu().tlb();
        lookups += tlb.lookups();
        misses += tlb.misses();
    }
    std::uint64_t hits = lookups - misses;
    std::uint64_t wide = sys.totalTlbWideHits();

    Table t({"translation reach", "count"});
    t.addRow({"tlb hits", std::to_string(hits)});
    t.addRow({"  served by wide entries", std::to_string(wide)});
    t.addRow({"  wide hit share",
              Table::pct(hits ? double(wide) / double(hits) : 0.0)});
    t.addRow({"thp fault allocations", std::to_string(kern.thpFaults())});
    t.addRow({"napot promotions", std::to_string(kern.napotPromotions())});
    t.addRow({"napot breaks", std::to_string(kern.napotBreaks())});
    t.addRow({"2MB promotions", std::to_string(kern.hugePromotions())});
    t.addRow({"2MB splits", std::to_string(kern.hugeSplits())});
    t.addRow({"2MB whole-unit reclaims",
              std::to_string(kern.hugeReclaims())});
    if (const core::Kcoalesced *kc = sys.kcoalesced()) {
        t.addRow({"kcoalesced windows scanned",
                  std::to_string(kc->windowsScanned())});
        t.addRow({"kcoalesced windows promoted",
                  std::to_string(kc->windowsPromoted())});
        t.addRow({"kcoalesced promotions aborted",
                  std::to_string(kc->promotionsAborted())});
        t.addRow({"kcoalesced shootdown IPIs",
                  std::to_string(kc->shootdownIpisSent())});
    }
    t.addRow({"wide shootdowns delayed",
              std::to_string(sys.wideShootdownsDelayed())});
    return t;
}

Table
tierTable(system::System &sys)
{
    Table t({"cxl tier", "count"});
    std::uint64_t hits = 0, misses = 0, inline_hits = 0, event_hits = 0;
    for (unsigned s = 0; s < sys.numSockets(); ++s) {
        tier::CxlBuffer *tb = sys.tierAt(s);
        std::string pfx = "socket " + std::to_string(s) + " ";
        if (!tb) {
            t.addRow({pfx + "tier", "off"});
            continue;
        }
        hits += tb->hits();
        misses += tb->misses();
        t.addRow({pfx + "hits", std::to_string(tb->hits())});
        t.addRow({pfx + "misses", std::to_string(tb->misses())});
        t.addRow({pfx + "admits", std::to_string(tb->admits())});
        t.addRow({pfx + "admit rejects",
                  std::to_string(tb->admitRejects())});
        t.addRow({pfx + "clean evictions",
                  std::to_string(tb->evictsClean())});
        t.addRow({pfx + "dirty evictions",
                  std::to_string(tb->evictsDirty())});
        t.addRow({pfx + "writes absorbed",
                  std::to_string(tb->writesAbsorbed())});
        t.addRow({pfx + "occupancy", std::to_string(tb->occupancy()) +
                                         " / " +
                                         std::to_string(tb->capacity())});
        t.addRow({pfx + "occupancy high-water",
                  std::to_string(tb->occupancyHighWater())});
        if (core::Smu *smu = sys.smuAt(s)) {
            inline_hits += smu->inlineTierHits();
            event_hits += smu->eventTierHits();
        }
        if (core::SoftwareSmu *sw = sys.softwareSmuAt(s))
            event_hits += sw->tierHits();
    }
    std::uint64_t probes = hits + misses;
    t.addRow({"hit rate",
              Table::pct(probes ? double(hits) / double(probes) : 0.0)});
    t.addRow({"smu hits served inline",
              Table::pct(inline_hits + event_hits
                             ? double(inline_hits) /
                                   double(inline_hits + event_hits)
                             : 0.0)});
    if (tier::Ktierd *kt = sys.ktierd()) {
        t.addRow({"ktierd frames scanned",
                  std::to_string(kt->framesScanned())});
        t.addRow({"ktierd writebacks submitted",
                  std::to_string(kt->writebacksSubmitted())});
    }
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
