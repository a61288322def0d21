/**
 * @file
 * SMU page table updater.
 *
 * After the device I/O completes, the SMU updates the PTE in place —
 * replacing the LBA field with the newly allocated PFN — and sets the
 * LBA bits of the PMD and PUD entries so kpted can find the PTE later.
 * Crucially the PTE's own LBA bit is NOT cleared: present + LBA means
 * "resident, OS metadata pending" (Table I). The three entry accesses
 * rarely miss the LLC; the paper charges 97 cycles (three LLC
 * read+writes, Figure 11(b)), which the SMU adds to its other costs.
 */

#ifndef HWDP_CORE_PT_UPDATER_HH
#define HWDP_CORE_PT_UPDATER_HH

#include "cpu/mmu.hh"
#include "sim/types.hh"

namespace hwdp::core {

class PageTableUpdater
{
  public:
    /** Perform the updates for a completed miss. */
    void update(const cpu::PageMissRequest &req, Pfn pfn);

    /**
     * TEST ONLY: skip marking the upper-level (PMD/PUD) LBA bits.
     * Breaks the contract kpted's guided scan depends on; exists so
     * the differential harness can prove it detects exactly this
     * class of bug (a seeded-defect negative test). Never set outside
     * tests.
     */
    void setSkipUpperMarkForTest(bool skip) { skipUpperMark = skip; }

  private:
    bool skipUpperMark = false;
};

} // namespace hwdp::core

#endif // HWDP_CORE_PT_UPDATER_HH
