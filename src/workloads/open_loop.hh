/**
 * @file
 * Open-loop KV serving: arrivals at a configured rate, not at the
 * completion rate.
 *
 * The paper's throughput figures are closed-loop (each thread issues
 * its next request when the previous one finishes), which hides
 * queueing: a slow mode simply issues fewer requests. A serving
 * experiment needs the opposite — requests arrive on a Poisson
 * schedule at a configured offered load whether or not the machine
 * keeps up, and latency is measured from the *scheduled arrival* to
 * completion, so queueing delay under overload is visible (the
 * latency-vs-offered-load hockey stick).
 *
 * OpenLoopSource pre-generates the whole arrival schedule from its
 * own forked rng (exponential gaps at the aggregate rate) and deals
 * arrivals round-robin to the server threads, so the schedule is a
 * pure function of the seed — independent of socket count and
 * completion order. Each OpenLoopServer is a Workload pulled by one
 * ThreadContext: it idles until its next arrival is
 * due, then emits the request's op sequence through the shared
 * KvStore recipes (zipfian or latest key choice, read/update mix),
 * and records completion-minus-arrival latency into its reservoir at
 * appOpDone time.
 */

#ifndef HWDP_WORKLOADS_OPEN_LOOP_HH
#define HWDP_WORKLOADS_OPEN_LOOP_HH

#include <deque>
#include <memory>
#include <vector>

#include "metrics/latency_reservoir.hh"
#include "workloads/key_chooser.hh"
#include "workloads/kv_store.hh"
#include "workloads/workload.hh"

namespace hwdp::workloads {

struct OpenLoopParams
{
    /** Aggregate offered load across every server thread (ops/s). */
    double offeredOpsPerSec = 100'000.0;

    /** Total requests in the schedule (across all servers). */
    std::uint64_t totalRequests = 20'000;

    unsigned nServers = 1;

    /** Read fraction; the rest are updates (WAL write + record). */
    double readFrac = 0.95;

    /** Key popularity: scrambled zipfian, or "latest" (YCSB-D). */
    bool latestChooser = false;
    double zipfTheta = 0.99;

    /** Per-server latency reservoir capacity. */
    std::size_t reservoirCapacity = 1 << 14;
};

class OpenLoopSource
{
  public:
    /**
     * @param schedule_rng Forked once for the arrival schedule; the
     *        per-request randomness (keys, mix) comes from each
     *        server thread's own rng at draw time.
     */
    OpenLoopSource(KvStore &store, const OpenLoopParams &p,
                   sim::Rng schedule_rng);

    KvStore &kv() { return store; }
    const OpenLoopParams &params() const { return prm; }
    KeyChooser &chooser() { return *keyChooser; }

    const std::vector<Tick> &
    arrivalsFor(unsigned server) const
    {
        return schedule.at(server);
    }

    /** First scheduled arrival across all servers (0 if none). */
    Tick firstArrival() const { return first; }
    /** Last scheduled arrival across all servers. */
    Tick lastArrival() const { return last; }

  private:
    KvStore &store;
    OpenLoopParams prm;
    std::unique_ptr<KeyChooser> keyChooser;
    std::vector<std::vector<Tick>> schedule;
    Tick first = 0;
    Tick last = 0;
};

class OpenLoopServer : public Workload
{
  public:
    OpenLoopServer(OpenLoopSource &source, unsigned server_idx);

    Op next(sim::Rng &rng) override { return next(rng, 0); }
    Op next(sim::Rng &rng, Tick now) override;
    void appOpDone(Tick now) override;
    const char *label() const override { return "open_loop"; }

    std::uint64_t served() const { return nServed; }
    Tick lastCompletion() const { return lastDone; }
    metrics::LatencyReservoir &latency() { return lat; }
    const metrics::LatencyReservoir &latency() const { return lat; }

    /**
     * Checkpoint the serving cursor and the reservoir. The arrival
     * schedule is regenerated at boot from the same seed and is
     * verified, not stored.
     */
    void serialize(sim::Serializer &s) override;

  private:
    OpenLoopSource &src;
    unsigned idx;
    std::deque<Op> pending;
    std::uint64_t cursor = 0;   ///< Next unserved arrival index.
    Tick curArrival = 0;        ///< Scheduled arrival of the open request.
    bool requestOpen = false;
    std::uint64_t nServed = 0;
    Tick lastDone = 0;
    metrics::LatencyReservoir lat;
};

} // namespace hwdp::workloads

#endif // HWDP_WORKLOADS_OPEN_LOOP_HH
