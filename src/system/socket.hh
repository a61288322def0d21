/**
 * @file
 * Socket: per-socket grouping of one machine's resources.
 *
 * The paper's SMU is a per-socket memory-side unit (Section III): each
 * socket carries its own SMU with PMSHR and free-page queues, its own
 * NVMe device(s) behind the local host controller, a contiguous span
 * of DRAM (see mem::PhysMem's partition) and an equal share of the
 * logical cores. System assembles one of these per configured socket —
 * a single-socket machine gets exactly one, wrapping the same objects
 * the pre-NUMA simulator built.
 *
 * The grouping is non-owning: System owns every component; Socket is
 * the topology view the NUMA paths (placement, remote-fill routing,
 * shootdown fan-out, invariant audits) navigate. The only state that
 * lives *in* the Socket is the shootdown epoch and fan-out counts,
 * the counters of its stat group. The group joins the machine's list
 * only on multi-socket machines, so a single-socket machine dumps and
 * checkpoints no socket counters.
 */

#ifndef HWDP_SYSTEM_SOCKET_HH
#define HWDP_SYSTEM_SOCKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/smu.hh"
#include "core/software_smu.hh"
#include "sim/stats.hh"

namespace hwdp::tier {
class CxlBuffer;
}

namespace hwdp::system {

struct Socket
{
    /** @p reg: the machine's stat list (nullptr on one socket). */
    Socket(unsigned sid, sim::StatRegistry *reg)
        : id(sid), stats("socket" + std::to_string(sid), reg),
          shootdownEpoch(stats, "shootdown_epoch",
                         "TLB/PWC shootdown broadcasts observed"),
          remoteShootdownsIn(stats, "remote_shootdowns_in",
                             "broadcasts that reached a non-empty PWC"),
          shootdownsDropped(stats, "shootdowns_dropped",
                            "remote PWC invalidations dropped (injected)"),
          shootdownsDelayed(stats, "shootdowns_delayed",
                            "remote PWC invalidations deferred (injected)")
    {
    }

    unsigned id = 0;

    /** Local cores are the contiguous range [firstCore, firstCore+nCores). */
    unsigned firstCore = 0;
    unsigned nCores = 0;

    /** This socket's SMU (hwdp mode; owns PMSHR, FPQs, NVMe host ctrl). */
    core::Smu *smu = nullptr;

    /** This socket's software SMU (swsmu mode; owns its queue). */
    core::SoftwareSmu *swSmu = nullptr;

    /** Locally attached block devices (global ssd index order). */
    std::vector<ssd::SsdDevice *> devices;

    /** This socket's CXL buffer tier (tierMode=cxl only). */
    tier::CxlBuffer *tier = nullptr;

    sim::StatGroup stats;

    /**
     * Bumped once per TLB/PWC shootdown broadcast. Every socket
     * observes every broadcast, so the epochs must agree across
     * sockets at all times — checkInvariants audits exactly that.
     */
    sim::Counter shootdownEpoch;

    /** Shootdown broadcasts that reached this socket from another one. */
    sim::Counter remoteShootdownsIn;

    /** Remote-PWC invalidations dropped/deferred by fault injection. */
    sim::Counter shootdownsDropped;
    sim::Counter shootdownsDelayed;

    /** The socket's free-page queues, whichever SMU flavour it runs. */
    std::vector<core::FreePageQueue *>
    freePageQueues() const
    {
        if (smu)
            return smu->freePageQueues();
        if (swSmu)
            return {&swSmu->freePageQueue()};
        return {};
    }
};

} // namespace hwdp::system

#endif // HWDP_SYSTEM_SOCKET_HH
