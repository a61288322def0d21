#include "cpu/thread_context.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::cpu {

namespace {

/** CPI with all-hit caches (the L1 hit latency is folded in). */
constexpr double baseCpi = 0.45;
/** Cycles lost per mispredicted branch. */
constexpr Cycles mispredPenalty = 15;

} // namespace

void
ThreadContext::serialize(sim::Serializer &s)
{
    s.section("threadcontext");
    if (s.saving() && hasCurOp)
        throw sim::SerializeError(
            "checkpoint: thread '" + name() +
            "' holds a stashed op; quiesce the machine first");
    serializeState(s);
    s.io(uInstr);
    s.io(uCycles);
    s.io(cCycles);
    s.io(mCycles);
    s.io(nAppOps);
    s.io(nMemOps);
    s.io(nFaulted);
    s.io(nHwHandled);
    s.io(faultStall);
    s.io(started);
    s.io(finished);
    s.io(isDone);
    s.io(wasOomKilled);
    s.io(startedFlag);
    s.io(fetchSeq);
    memLat.serialize(s);
    faultedOpLat.serialize(s);
    s.io(appOpStart);
    s.io(appOpFaulted);
    s.io(appOpOpen);
    s.io(memOpStart);
    s.io(memOpEndsApp);
    rng.serialize(s);
    workload.serialize(s);
}

ThreadContext::ThreadContext(std::string name, unsigned core,
                             os::Kernel &kernel, Mmu &mmu,
                             mem::CacheHierarchy &caches,
                             mem::BranchPredictor &bp,
                             os::AddressSpace &as,
                             workloads::Workload &workload,
                             const CoreParams &params, sim::Rng rng)
    : os::Thread(std::move(name), core), kernel(kernel), mmuRef(mmu),
      caches(caches), bp(bp), as(as), workload(workload), prm(params),
      rng(rng), physCore(kernel.scheduler().physCoreOf(core)),
      memLat("mem_latency_us", "per-access latency (us)", 0.5, 400),
      faultedOpLat("faulted_op_latency_us",
                   "app-op latency when a page miss occurred (us)", 0.5,
                   400)
{
    if (prm.memQuantum == 0)
        fatal("thread '", this->name(), "': memQuantum must be >= 1");
}

void
ThreadContext::run()
{
    if (!startedFlag) {
        startedFlag = true;
        started = kernel.now();
    }
    if (hasResumeAction()) {
        takeResumeAction()();
        return;
    }
    opLoop();
}

bool
ThreadContext::handleOom()
{
    // The faulting access never completes; the thread terminates the
    // way an OOM-killed process does. The fault path runs entirely in
    // this thread's context, so it is still current on its core and
    // finish() is legal here.
    wasOomKilled = true;
    isDone = true;
    finished = kernel.now();
    kernel.scheduler().finish(this);
    if (onFinished)
        onFinished();
    return true;
}

void
ThreadContext::opLoop()
{
    if (isDone)
        return;

    sim::EventQueue &eq = kernel.eventQueue();
    const Tick t0 = kernel.now();

    // Batch horizon: the next pending event anywhere in the machine.
    // As long as the logical clock t0 + accrued stays below it, no
    // other actor can run, so completing ops synchronously is
    // indistinguishable from event-per-op execution. The thread posts
    // no events inside a batch, so the horizon cannot move under us.
    const Tick horizon = eq.nextEventTick();
    Tick accrued = 0;
    unsigned batched = 0;

    for (;;) {
        // Cut the batch: the next op would cross the horizon or the
        // quantum is spent. One pooled continuation carries the whole
        // batch's accrued time.
        if (accrued > 0 &&
            (t0 + accrued >= horizon || batched >= prm.memQuantum)) {
            eq.postIn(accrued, [this] { opLoop(); }, "tc.batch");
            return;
        }

        // Operation boundary: let pending interrupt work run (it
        // borrows this context, no full context switch). The pending
        // set only changes when events fire, and none fire inside a
        // batch, so checking at the batch head is exact.
        if (accrued == 0 && kernel.scheduler().kernelWorkPending(core())) {
            setResumeAction([this] { opLoop(); });
            kernel.scheduler().preemptForKernelWork(this);
            return;
        }

        if (!hasCurOp) {
            curOp = workload.next(rng, t0 + accrued);
            hasCurOp = true;
        }
        const workloads::Op &op = curOp;

        // Ops that involve the kernel or the scheduler run at real
        // simulated time: flush the accrued batch first and execute
        // the stashed op at the continuation (so preemption and
        // bookkeeping happen at its actual start time, as before).
        bool inline_op = op.kind == workloads::Op::Kind::compute ||
                         op.kind == workloads::Op::Kind::mem ||
                         op.kind == workloads::Op::Kind::idle;
        if (!inline_op && accrued > 0) {
            eq.postIn(accrued, [this] { opLoop(); }, "tc.batch");
            return;
        }

        if (!appOpOpen && op.kind != workloads::Op::Kind::done) {
            appOpOpen = true;
            appOpFaulted = false;
            appOpStart = t0 + accrued;
        }

        switch (op.kind) {
          case workloads::Op::Kind::compute: {
            accrued += computeBurst(op.compute);
            ++batched;
            hasCurOp = false;
            if (op.endsAppOp)
                finishOp(t0 + accrued);
            continue;
          }

          case workloads::Op::Kind::mem: {
            ++nMemOps;
            memOpStart = t0 + accrued;
            memOpEndsApp = op.endsAppOp;
            hasCurOp = false;
            AccessInfo info;
            if (mmuRef.access(*this, as, op.addr, op.write, accrued,
                              *this, info)) {
                // Hit: complete inline.
                memLat.sample(toMicroseconds(info.latency));
                uCycles += info.latency / cyclePeriod;
                mCycles += info.latency / cyclePeriod;
                accrued += info.latency;
                ++batched;
                if (memOpEndsApp)
                    finishOp(t0 + accrued);
                continue;
            }
            // Page miss: the access is parked in the MMU (issued at
            // logical time t0 + accrued) and the completion arrives
            // through accessDone(), which restarts the loop.
            return;
          }

          case workloads::Op::Kind::idle:
            // Think time is pure logical-clock advance; other actors
            // still run first if their events fall inside it (the
            // horizon cut above).
            accrued += op.idleTicks;
            ++batched;
            hasCurOp = false;
            if (op.endsAppOp)
                finishOp(t0 + accrued);
            continue;

          case workloads::Op::Kind::fileWrite:
            hasCurOp = false;
            kernel.writeFile(*this, *op.file, op.pageIndex, op.bytes,
                             [this, ends = op.endsAppOp] {
                                 if (ends)
                                     finishOp(kernel.now());
                                 opLoop();
                             });
            return;

          case workloads::Op::Kind::msync:
            hasCurOp = false;
            kernel.msyncVma(*this, op.vma,
                            [this, ends = op.endsAppOp] {
                                if (ends)
                                    finishOp(kernel.now());
                                opLoop();
                            });
            return;

          case workloads::Op::Kind::done:
            hasCurOp = false;
            isDone = true;
            finished = kernel.now();
            kernel.scheduler().finish(this);
            if (onFinished)
                onFinished();
            return;
        }
        panic("thread '", name(), "': unhandled op kind");
    }
}

void
ThreadContext::accessDone(const AccessInfo &info)
{
    memLat.sample(toMicroseconds(info.latency));
    if (info.faulted) {
        appOpFaulted = true;
        ++nFaulted;
        faultStall += kernel.now() - memOpStart;
        if (info.hwHandled)
            ++nHwHandled;
    } else {
        uCycles += info.latency / cyclePeriod;
        mCycles += info.latency / cyclePeriod;
    }
    if (memOpEndsApp)
        finishOp(kernel.now());
    opLoop();
}

void
ThreadContext::finishOp(Tick logical_now)
{
    ++nAppOps;
    if (appOpFaulted)
        faultedOpLat.sample(toMicroseconds(logical_now - appOpStart));
    appOpOpen = false;
    workload.appOpDone(logical_now);
}

void
drawBurst(sim::Rng &rng, const workloads::ComputeSpec &spec,
          std::uint64_t n_refs, std::uint64_t n_br, std::uint64_t *addrs,
          std::uint64_t *pcs, std::uint8_t *taken)
{
    // Whether a chance() draws depends only on its probability, so
    // every draw's position is known in advance and each stream is one
    // Rng::bulk lane loop of one or two draws per element. A chance()
    // that draws nothing maps through a threshold of 0 (never) or 2^53
    // (always), which ignores the draw it is handed. The lambdas read
    // the spec through locals: their stores are uint64_t stores, which
    // may alias the spec's uint64_t fields.
    const std::uint64_t hot_base = spec.hotBase;
    const std::uint64_t hot_bytes = spec.hotBytes;
    const std::uint64_t cold_bytes = spec.coldBytes;
    const std::uint64_t cold_t =
        cold_bytes > 0 ? sim::Rng::chanceThreshold(spec.coldFrac) : 0;
    auto ref = [=](std::size_t i, std::uint64_t z_cold, std::uint64_t z) {
        // coldFrac of the references roam the cold region; the choice
        // is a mask, not a branch.
        const std::uint64_t sel = 0 - static_cast<std::uint64_t>(
                                          sim::Rng::chanceOf(z_cold, cold_t));
        const std::uint64_t bound =
            hot_bytes ^ ((hot_bytes ^ cold_bytes) & sel);
        addrs[i] = hot_base + (hot_bytes & sel) +
                   (sim::Rng::rangeOf(z, bound) & ~7ULL);
    };
    if (cold_bytes > 0 && sim::Rng::chanceDraws(spec.coldFrac))
        rng.bulk<2>(n_refs, ref);
    else
        rng.bulk<1>(n_refs, ref);

    // Branch sites, and outcomes taken with probability branchBias.
    const std::uint64_t text_base = spec.textBase;
    const std::uint64_t sites = spec.staticBranches;
    const std::uint64_t taken_t =
        sim::Rng::chanceThreshold(spec.branchBias);
    auto branch = [=](std::size_t i, std::uint64_t z,
                      std::uint64_t z_taken) {
        pcs[i] = text_base + sim::Rng::rangeOf(z, sites) * 16;
        taken[i] = sim::Rng::chanceOf(z_taken, taken_t);
    };
    if (sim::Rng::chanceDraws(spec.branchBias))
        rng.bulk<2>(n_br, branch);
    else
        rng.bulk<1>(n_br, branch);
}

Tick
ThreadContext::computeBurst(const workloads::ComputeSpec &spec)
{
    // rangeOf(z, 0) maps every draw to 0 instead of failing.
    if (spec.hotBytes == 0 || spec.staticBranches == 0)
        panic("thread '", name(), "': compute burst needs hotBytes and "
              "staticBranches > 0 (got ", spec.hotBytes, ", ",
              spec.staticBranches, ")");

    // Per data reference one cache descent, per 16 instructions one
    // instruction fetch, per branch one predictor update, run in bulk:
    // the RNG draws keep that loop order (generation is hoisted, not
    // reordered), each stream goes through accessBatch as one run, and
    // the stall sum is rebuilt from per-level hit counts — every line
    // that hits level k adds max(latency_k, l1Latency) - l1Latency
    // (baseCpi covers the L1 hit). The issue-slot share is sampled at
    // burst start.
    double share = kernel.scheduler().widthShare(core());
    const mem::CacheParams &cp = caches.params();
    auto stallSum = [&](const mem::CacheBatchResult &r, std::uint64_t n) {
        auto stall_for = [&](Cycles lat) {
            return std::max(lat, cp.l1Latency) - cp.l1Latency;
        };
        return (n - r.l1Misses) * stall_for(cp.l1Latency) +
               (r.l1Misses - r.l2Misses) * stall_for(cp.l2Latency) +
               (r.l2Misses - r.llcMisses) * stall_for(cp.llcLatency) +
               r.llcMisses * stall_for(cp.dramLatency);
    };

    Cycles extra = 0;

    // All of the burst's randomness, drawn up front in the loop order.
    // (The cache streams consume no randomness, so drawing the
    // branches here leaves the generator stream identical to drawing
    // them after the cache passes, which is where the loop order puts
    // them.)
    auto n_refs = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.memRefFrac);
    auto n_br = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.branchFrac);
    burstAddrs.resize(n_refs);
    burstPcs.resize(n_br);
    burstTaken.resize(n_br);
    drawBurst(rng, spec, n_refs, n_br, burstAddrs.data(), burstPcs.data(),
              burstTaken.data());

    Cycles data_stall = 0;
    if (n_refs > 0) {
        auto r = caches.accessBatch(physCore, burstAddrs.data(), n_refs,
                                    false, ExecMode::user);
        data_stall = stallSum(r, n_refs);
    }
    // Overlapped misses (memory-level parallelism) hide stall cycles.
    extra += static_cast<Cycles>(static_cast<double>(data_stall) /
                                 std::max(spec.mlp, 1.0));

    // Instruction fetch streams over the text footprint, wrapping
    // incrementally, then goes through the L1I as one run.
    std::uint64_t n_lines = spec.instructions / 16 + 1;
    std::uint64_t text_lines =
        std::max<std::uint64_t>(spec.textBytes / lineSize, 1);
    std::uint64_t pos = fetchSeq % text_lines;
    burstAddrs.resize(n_lines);
    for (std::uint64_t i = 0; i < n_lines; ++i) {
        burstAddrs[i] = spec.textBase + pos * lineSize;
        if (++pos == text_lines)
            pos = 0;
    }
    {
        auto r = caches.accessBatch(physCore, burstAddrs.data(), n_lines,
                                    true, ExecMode::user);
        extra += stallSum(r, n_lines);
    }

    // Cold-path fetches: the workload's intrinsic L1I miss floor.
    if (spec.icacheColdLines > 0) {
        burstAddrs.resize(spec.icacheColdLines);
        for (std::uint32_t i = 0; i < spec.icacheColdLines; ++i)
            burstAddrs[i] = spec.textBase + 0x100'0000 +
                            ((fetchSeq * 13 + i * 67) % 16384) * lineSize;
        auto r = caches.accessBatch(physCore, burstAddrs.data(),
                                    spec.icacheColdLines, true,
                                    ExecMode::user);
        extra += stallSum(r, spec.icacheColdLines);
    }
    fetchSeq += n_lines;

    // Predictor batch (n_pcs == n, so the ring never wraps and pcs[i]
    // pairs with taken[i]).
    std::uint64_t mispred = 0;
    if (n_br > 0)
        mispred = bp.updateBatch(burstPcs.data(), n_br, burstTaken.data(),
                                 n_br, ExecMode::user);

    auto base = static_cast<Cycles>(
        static_cast<double>(spec.instructions) * baseCpi);
    Cycles cycles = base + extra + mispred * mispredPenalty;
    auto duration = static_cast<Tick>(
        static_cast<double>(cycles * cyclePeriod) / share);

    uInstr += spec.instructions;
    uCycles += duration / cyclePeriod;
    cCycles += duration / cyclePeriod;

    return duration;
}

} // namespace hwdp::cpu
