#include "testing/fault_plan.hh"

#include "sim/serialize.hh"
#include "system/system.hh"

namespace hwdp::testing {

void
FaultPlan::serialize(sim::Serializer &s)
{
    s.section("faultplan");
    for (auto &st : states) {
        s.check(st.armed, "fault site armed");
        s.check(st.cfg.rate, "fault site rate");
        s.check(st.cfg.maxInjections, "fault site cap");
        st.rng.serialize(s);
        s.io(st.nQueries);
    }
    std::uint64_t n = injectionLog.size();
    s.io(n);
    if (s.loading())
        injectionLog.resize(n);
    for (auto &e : injectionLog) {
        auto site = static_cast<std::uint32_t>(e.site);
        s.io(site);
        if (s.loading())
            e.site = static_cast<FaultSite>(site);
        s.io(e.tick);
        s.io(e.querySeq);
    }
    grp.serialize(s);
}

const char *
faultSiteName(FaultSite s)
{
    switch (s) {
      case FaultSite::ssdReadError:
        return "ssd_read_error";
      case FaultSite::ssdLatencySpike:
        return "ssd_latency_spike";
      case FaultSite::ssdChannelStall:
        return "ssd_channel_stall";
      case FaultSite::ssdDroppedDoorbell:
        return "ssd_dropped_doorbell";
      case FaultSite::fpqDry:
        return "fpq_dry";
      case FaultSite::pmshrFull:
        return "pmshr_full";
      case FaultSite::remoteFpqDry:
        return "remote_fpq_dry";
      case FaultSite::shootdownDrop:
        return "shootdown_drop";
      case FaultSite::shootdownDelay:
        return "shootdown_delay";
      case FaultSite::remotePmshrFull:
        return "remote_pmshr_full";
      case FaultSite::hugeCoalesceAbort:
        return "huge_coalesce_abort";
      case FaultSite::hugeSplitStorm:
        return "huge_split_storm";
      case FaultSite::staleWideTlb:
        return "stale_wide_tlb";
      case FaultSite::tierFullWindow:
        return "tier_full_window";
      case FaultSite::tierWritebackStall:
        return "tier_writeback_stall";
      case FaultSite::tierLoadError:
        return "tier_load_error";
    }
    return "unknown";
}

FaultPlan::FaultPlan(std::string name, sim::EventQueue &eq,
                     std::uint64_t seed)
    : eq(eq), grp(std::move(name))
{
    // Each site forks its own stream off the seed in a fixed order, so
    // site i's decision sequence is a pure function of (seed, i).
    sim::Rng base(seed);
    for (unsigned i = 0; i < numFaultSites; ++i) {
        states[i].rng = base.fork();
        injectedCounts.emplace_back(
            grp,
            std::string(faultSiteName(static_cast<FaultSite>(i))) +
                "_injections",
            "faults injected at this site");
        states[i].injected = &injectedCounts.back();
    }
}

void
FaultPlan::armAllAtRate(double rate)
{
    for (auto &st : states) {
        st.cfg.rate = rate;
        st.armed = true;
    }
}

void
FaultPlan::attach(system::System &sys)
{
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        attachSsd(sys.ssdAt(d));
    // Socket 0 keeps the original sites, so a single-socket plan's
    // query sequences are unchanged; sockets 1+ get the remote
    // variants, which makes "only the remote node misbehaves"
    // experiments expressible.
    for (const system::Socket &sk : sys.socketTopology()) {
        bool remote = sk.id != 0;
        for (core::FreePageQueue *q : sk.freePageQueues())
            attachFpq(*q, remote);
        // PMSHR-full sites exist on hwdp tables only: the emulation's
        // table holds one entry per core at most and never fills.
        if (sk.smu)
            attachPmshr(sk.smu->pmshr(), remote);
    }
    // Translation-reach sites exist only when the machine can produce
    // wide PTEs; an off machine keeps the exact pre-huge-page hook
    // set (and these sites' streams are simply never queried).
    if (sys.config().pageMode != PageMode::off) {
        sys.kernel().setHugeSplitHook(
            [this] { return decide(FaultSite::hugeSplitStorm); });
        sys.setWideShootdownHook([this]() -> Tick {
            if (decide(FaultSite::staleWideTlb))
                return states[idx(FaultSite::staleWideTlb)]
                    .cfg.wideShootdownDeferral;
            return 0;
        });
        if (sys.kcoalesced())
            sys.kcoalesced()->setAbortHook([this] {
                return decide(FaultSite::hugeCoalesceAbort);
            });
    }
    // Tier sites exist only when the machine carries CXL buffers; an
    // off machine keeps the exact pre-tier hook set (and these sites'
    // streams are simply never queried).
    if (sys.config().tierMode != system::TierMode::off) {
        for (unsigned sk = 0; sk < sys.numSockets(); ++sk) {
            tier::CxlBuffer *t = sys.tierAt(sk);
            t->setFullWindowHook(
                [this] { return decide(FaultSite::tierFullWindow); });
            t->setLoadErrorHook(
                [this] { return decide(FaultSite::tierLoadError); });
        }
        sys.ktierd()->setWritebackStallHook([this]() -> Tick {
            if (decide(FaultSite::tierWritebackStall))
                return states[idx(FaultSite::tierWritebackStall)]
                    .cfg.tierWritebackDelay;
            return 0;
        });
    }
    if (sys.numSockets() > 1) {
        sys.setShootdownFaultHook([this](unsigned) {
            system::System::ShootdownFault f;
            // Both streams advance on every query, so arming one site
            // never shifts the other's decision sequence.
            f.drop = decide(FaultSite::shootdownDrop);
            bool delay = decide(FaultSite::shootdownDelay);
            if (delay && !f.drop)
                f.delay = states[idx(FaultSite::shootdownDelay)]
                              .cfg.shootdownDeferral;
            return f;
        });
    }
}

void
FaultPlan::attachSsd(ssd::SsdDevice &dev)
{
    dev.setFaultInjector(this);
}

void
FaultPlan::attachFpq(core::FreePageQueue &q, bool remote_socket)
{
    FaultSite s =
        remote_socket ? FaultSite::remoteFpqDry : FaultSite::fpqDry;
    q.setDryHook([this, s] { return decide(s); });
}

void
FaultPlan::attachPmshr(core::Pmshr &p, bool remote_socket)
{
    FaultSite s = remote_socket ? FaultSite::remotePmshrFull
                                : FaultSite::pmshrFull;
    p.setFullHook([this, s] { return decide(s); });
}

bool
FaultPlan::decide(FaultSite s)
{
    SiteState &st = states[idx(s)];
    // The stream advances on every query, armed or not: arming a site
    // must not shift the decision sequence of any other query.
    std::uint64_t seq = st.nQueries++;
    bool roll = st.rng.chance(st.cfg.rate);
    if (!st.armed || st.cfg.rate <= 0.0)
        return false;
    if (st.injected->value() >= st.cfg.maxInjections)
        return false;
    if (!roll)
        return false;
    ++*st.injected;
    injectionLog.push_back(LogEntry{s, eq.now(), seq});
    return true;
}

ssd::IoFaultDecision
FaultPlan::onCommand(const nvme::SubmissionEntry &sqe, std::uint16_t)
{
    ssd::IoFaultDecision d;
    if (sqe.opcode == nvme::Opcode::read &&
        decide(FaultSite::ssdReadError))
        d.status = states[idx(FaultSite::ssdReadError)].cfg.errorStatus;
    if (decide(FaultSite::ssdLatencySpike))
        d.extraLatency =
            states[idx(FaultSite::ssdLatencySpike)].cfg.latencySpike;
    if (decide(FaultSite::ssdChannelStall))
        d.channelStall =
            states[idx(FaultSite::ssdChannelStall)].cfg.channelStall;
    return d;
}

Tick
FaultPlan::doorbellDropDelay(std::uint16_t)
{
    if (decide(FaultSite::ssdDroppedDoorbell))
        return states[idx(FaultSite::ssdDroppedDoorbell)]
            .cfg.doorbellDelay;
    return 0;
}

std::uint64_t
FaultPlan::totalInjections() const
{
    std::uint64_t n = 0;
    for (const auto &st : states)
        n += st.injected->value();
    return n;
}

} // namespace hwdp::testing
