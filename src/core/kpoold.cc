#include "core/kpoold.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::core {

void
Kpoold::serialize(sim::Serializer &s)
{
    s.section("kpoold");
    KThread::serialize(s);
    s.check(maxBatch, "kpoold batch size");
}

Kpoold::Kpoold(os::Kernel &kernel, std::vector<FreePageQueue *> fpqs,
               unsigned core, Tick period, std::uint64_t max_batch)
    : os::KThread("kpoold", core, kernel.scheduler(),
                  kernel.eventQueue(), period),
      kernel(kernel), fpqs(std::move(fpqs)), maxBatch(max_batch),
      statDonated(stats(), "pages_donated",
                  "frames pushed into free page queues"),
      statOverlapped(stats(), "overlapped_refills",
                     "refills queued on a faulting core's I/O wait")
{
}

void
Kpoold::setSocketTags(std::vector<unsigned> tags)
{
    if (!tags.empty() && tags.size() != fpqs.size())
        fatal("kpoold: ", tags.size(), " socket tags for ", fpqs.size(),
              " queues");
    socketTags = std::move(tags);
}

std::uint64_t
Kpoold::donateTo(FreePageQueue &q, std::uint64_t want, unsigned socket)
{
    std::uint64_t pushed = 0;
    while (pushed < want && q.freeSlots() > 0) {
        // Strictly the queue's home node: a remote frame in a local
        // free-page queue would break the home-socket invariant (and
        // hand the SMU a frame every subsequent access pays the
        // QPI/UPI hop for).
        Pfn pfn = kernel.physMem().allocOnSocket(socket);
        if (pfn == mem::PhysMem::invalidPfn) {
            // Memory pressure: let the reclaimer catch up and retry
            // next period.
            kernel.reclaimer().kick();
            break;
        }
        os::Page &pg = kernel.page(pfn);
        pg.inUse = true;
        pg.inSmuQueue = true;
        q.push(pfn);
        ++pushed;
    }
    statDonated += pushed;
    return pushed;
}

std::uint64_t
Kpoold::donate(std::uint64_t want)
{
    std::uint64_t per_queue = std::max<std::uint64_t>(
        want / fpqs.size(), 1);
    std::uint64_t pushed = 0;
    for (std::size_t qi = 0; qi < fpqs.size(); ++qi)
        pushed += donateTo(*fpqs[qi], per_queue, socketOfQueue(qi));
    return pushed;
}

void
Kpoold::batch(std::function<void()> done)
{
    std::uint64_t pushed = donate(maxBatch);
    unsigned phys = sched.physCoreOf(core());
    Tick dur = sched.kernelExec().runBatch(
        phys, os::phases::kpooldPerPage, pushed);
    eq.postIn(dur, std::move(done), "kpoold.batch");
}

void
Kpoold::prime()
{
    for (std::size_t qi = 0; qi < fpqs.size(); ++qi) {
        donateTo(*fpqs[qi], fpqs[qi]->capacity(), socketOfQueue(qi));
        fpqs[qi]->refillPrefetch();
    }
}

void
Kpoold::refillOverlapped(unsigned faulting_core)
{
    ++statOverlapped;
    // The state change happens immediately; the cycles are charged as
    // kernel work on the faulting core, where they overlap the fault's
    // device I/O time (Section IV-D).
    std::uint64_t pushed = donate(maxBatch);
    if (pushed == 0)
        return;
    std::vector<const os::KernelPhase *> work(
        static_cast<std::size_t>(std::min<std::uint64_t>(pushed, 64)),
        &os::phases::kpooldPerPage);
    sched.queueKernelWork(faulting_core, std::move(work), [] {});
}

} // namespace hwdp::core
