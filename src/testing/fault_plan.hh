/**
 * @file
 * Deterministic, schedule-stable fault injection.
 *
 * A FaultPlan is a seeded set of injection sites threaded through the
 * machine: NVMe error completions, latency spikes, channel stalls and
 * dropped doorbells on the SSD; forced dry spells on the free page
 * queues; forced-full windows on the PMSHR. Each site draws from its
 * own forked RNG stream, so whether the i-th *query* of a site
 * injects depends only on (seed, site, i) — never on wall order
 * across sites — which is what makes runs replayable: the same seed
 * and plan against the same workload produce the identical event
 * schedule, including the injections.
 *
 * The plan implements ssd::IoFaultInjector and installs plain
 * std::function hooks on FreePageQueue/Pmshr, so the component models
 * carry no dependency on this library.
 *
 * The plan is a test-side attachment, not part of the machine, so it
 * is no SimObject: its own stat group is on no machine's list, and
 * neither the machine dump nor the machine checkpoint carries it. Its
 * injection counters ride in its own blob with the cursors they count.
 */

#ifndef HWDP_TESTING_FAULT_PLAN_HH
#define HWDP_TESTING_FAULT_PLAN_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/free_page_queue.hh"
#include "core/pmshr.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "ssd/ssd_device.hh"

namespace hwdp::system {
class System;
}

namespace hwdp::testing {

enum class FaultSite : unsigned {
    ssdReadError = 0,   ///< NVMe error status on a completion.
    ssdLatencySpike,    ///< Extra delay before the CQ write.
    ssdChannelStall,    ///< The command's channel stalls first.
    ssdDroppedDoorbell, ///< Doorbell noticed late by the device.
    fpqDry,             ///< Free page queue pop behaves empty.
    pmshrFull,          ///< PMSHR allocate behaves full.
    // NUMA sites (appended: earlier sites keep their fork streams).
    remoteFpqDry,       ///< Dry spell on a remote socket's FPQ.
    shootdownDrop,      ///< Cross-socket sync shootdown dropped.
    shootdownDelay,     ///< Cross-socket sync shootdown deferred.
    remotePmshrFull,    ///< Forced-full window on a remote PMSHR.
    // Translation-reach sites (appended: earlier sites keep their
    // fork streams, so pre-huge-page plans replay unchanged).
    hugeCoalesceAbort,  ///< kcoalesced skips a promotable window.
    hugeSplitStorm,     ///< Reclaim splits a clean huge unit.
    staleWideTlb,       ///< Promotion/split shootdown deferred.
    // CXL-tier sites (appended: earlier sites keep their fork
    // streams, so pre-tier plans replay unchanged).
    tierFullWindow,     ///< Tier admit behaves full (reject window).
    tierWritebackStall, ///< ktierd eviction write submitted late.
    tierLoadError,      ///< Tier load fails (clean: drop + SSD miss).
};
inline constexpr unsigned numFaultSites = 16;

const char *faultSiteName(FaultSite s);

/** Per-site tuning; rate 0 disables even when armed. */
struct SiteConfig
{
    /** Injection probability per query of the site. */
    double rate = 0.0;

    /** Stop injecting after this many hits (cap for directed tests). */
    std::uint64_t maxInjections = ~std::uint64_t(0);

    /**
     * NVMe status injected by ssdReadError. Default 0x0281: DNR clear,
     * media-and-data-integrity unrecovered read error (SCT 2, SC 0x81)
     * — the transient flavour a retry can clear.
     */
    std::uint16_t errorStatus = 0x0281;

    Tick latencySpike = microseconds(50.0);
    Tick channelStall = microseconds(20.0);
    Tick doorbellDelay = microseconds(5.0);

    /** Deferral applied when shootdownDelay hits. */
    Tick shootdownDeferral = microseconds(2.0);

    /** Deferral applied when staleWideTlb hits. */
    Tick wideShootdownDeferral = microseconds(5.0);

    /** Submission delay applied when tierWritebackStall hits. */
    Tick tierWritebackDelay = microseconds(10.0);
};

class FaultPlan : public ssd::IoFaultInjector
{
  public:
    FaultPlan(std::string name, sim::EventQueue &eq, std::uint64_t seed);

    // ---- Configuration -------------------------------------------------
    SiteConfig &site(FaultSite s) { return states[idx(s)].cfg; }

    void arm(FaultSite s) { states[idx(s)].armed = true; }
    bool armed(FaultSite s) const { return states[idx(s)].armed; }

    /** Arm every SSD-facing site + queue sites at a uniform rate. */
    void armAllAtRate(double rate);

    // ---- Wiring ---------------------------------------------------------
    /**
     * Attach to everything relevant in @p sys for its paging mode:
     * every SSD, every free page queue, and the PMSHR when present.
     * Multi-socket machines route sockets 1+ through the remote-site
     * variants (remoteFpqDry / remotePmshrFull) and install the
     * cross-socket shootdown fault hook.
     */
    void attach(system::System &sys);

    void attachSsd(ssd::SsdDevice &dev);
    void attachFpq(core::FreePageQueue &q, bool remote_socket = false);
    void attachPmshr(core::Pmshr &p, bool remote_socket = false);

    // ---- ssd::IoFaultInjector -------------------------------------------
    ssd::IoFaultDecision onCommand(const nvme::SubmissionEntry &sqe,
                                   std::uint16_t qid) override;
    Tick doorbellDropDelay(std::uint16_t qid) override;

    // ---- Introspection ---------------------------------------------------
    std::uint64_t injections(FaultSite s) const
    {
        return states[idx(s)].injected->value();
    }
    std::uint64_t queries(FaultSite s) const
    {
        return states[idx(s)].nQueries;
    }
    std::uint64_t totalInjections() const;

    /** One record per injection, in injection order (replay checks). */
    struct LogEntry
    {
        FaultSite site;
        Tick tick;
        std::uint64_t querySeq; ///< The site's query index that hit.
    };
    const std::vector<LogEntry> &log() const { return injectionLog; }

    /**
     * Checkpoint the per-site RNG streams, query cursors, injection
     * counters and the injection log, so a forked run injects at
     * exactly the same future queries a straight run would.
     */
    void serialize(sim::Serializer &s);

  private:
    struct SiteState
    {
        SiteConfig cfg;
        bool armed = false;
        sim::Rng rng{0};
        std::uint64_t nQueries = 0;
        sim::Counter *injected = nullptr;
    };

    static unsigned idx(FaultSite s) { return static_cast<unsigned>(s); }

    /** One query of @p s: roll the site's stream, log on a hit. */
    bool decide(FaultSite s);

    sim::EventQueue &eq;
    sim::StatGroup grp; ///< On no machine's list.
    std::array<SiteState, numFaultSites> states;
    std::deque<sim::Counter> injectedCounts; ///< SiteState::injected.
    std::vector<LogEntry> injectionLog;
};

} // namespace hwdp::testing

#endif // HWDP_TESTING_FAULT_PLAN_HH
