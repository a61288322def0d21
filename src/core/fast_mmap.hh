/**
 * @file
 * HWDP OS support glue: the fast-mmap VMA registry and hook wiring.
 *
 * The kernel proper stays ignorant of the hardware extension; this
 * module registers the control-plane pieces with it:
 *  - a registry of fast-mmap'ed VMAs for kpted to scan,
 *  - the munmap/msync metadata-sync hook (kpted's synchronous path),
 *  - the SMU barrier hook (wait for outstanding misses before unmap),
 *  - the overlapped free-page-queue refill hook for fallback faults,
 *  - the queue-empty kick that wakes kpoold early.
 */

#ifndef HWDP_CORE_FAST_MMAP_HH
#define HWDP_CORE_FAST_MMAP_HH

#include <vector>

#include "os/kernel.hh"

namespace hwdp::core {

class Kpoold;
class Kpted;
class MissEngine;
class Smu;

struct FastVma
{
    os::AddressSpace *as;
    os::Vma *vma;
};

class HwdpOsSupport
{
  public:
    explicit HwdpOsSupport(os::Kernel &kernel);

    /** Track a VMA mapped with the fast-mmap flag. */
    void registerFastVma(os::AddressSpace &as, os::Vma *vma);
    void unregisterFastVma(os::Vma *vma);

    const std::vector<FastVma> &fastVmas() const { return vmas; }

    /** Add a socket's miss engine (either mode) to the munmap barrier. */
    void attachEngine(MissEngine *engine);

    /** attachEngine() for the SMU's engine, plus the queue-empty kick. */
    void attachSmu(Smu *smu);

    /** Install the metadata-sync hook (munmap/msync barriers). */
    void attachKpted(Kpted *kpted);

    /** Install the overlapped-refill hook for fallback faults. */
    void attachKpoold(Kpoold *kpoold);

    os::Kernel &kernel() { return k; }

    /**
     * Checkpoint verification of the fast-VMA registry. The registry
     * is rebuilt by the boot recipe (fast-mmap calls), so restore only
     * confirms the restored machine tracks the same VMAs.
     */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &k;
    std::vector<FastVma> vmas;
    std::vector<MissEngine *> engines; ///< In socket order.
    Kpted *kpted = nullptr;
    Kpoold *kpoold = nullptr;

    void installHooks();

    /** Barrier on list[i..): each completes before the next starts. */
    static void barrierChain(std::vector<MissEngine *> list,
                             std::size_t i, std::function<void()> done);
};

} // namespace hwdp::core

#endif // HWDP_CORE_FAST_MMAP_HH
