#include "os/rmap.hh"

#include "os/file_system.hh"
#include "os/vma.hh"
#include "sim/logging.hh"

namespace hwdp::os {

Rmap::Rmap(ShootdownFn shootdown, sim::StatRegistry *reg)
    : shootdown(std::move(shootdown)), grp("rmap", reg),
      statLbaEvictions(grp, "evictions_to_lba",
                       "evicted pages left LBA-augmented (fast mmap)"),
      statPlainEvictions(grp, "evictions_plain",
                         "evicted pages left with an empty PTE")
{
}

void
Rmap::setMapping(Page &page, AddressSpace &as, VAddr vaddr)
{
    if (page.as != nullptr)
        panic("rmap: page ", page.pfn, " already mapped (sharing is "
              "unsupported by design)");
    page.as = &as;
    page.vaddr = vaddr;
}

void
Rmap::clearMapping(Page &page)
{
    page.as = nullptr;
    page.vaddr = 0;
}

bool
Rmap::unmapForEviction(Page &page)
{
    if (page.as == nullptr)
        panic("rmap: evicting unmapped page ", page.pfn);

    AddressSpace &as = *page.as;
    VAddr va = page.vaddr;
    Vma *vma = as.findVma(va);
    if (!vma)
        panic("rmap: mapping without a VMA at ", va);

    pte::Entry old = as.pageTable().readPte(va);
    bool dirty = pte::isDirty(old) || page.dirty;

    if (vma->fastMmap && vma->file) {
        // Keep hardware-based demand paging armed: store the page's
        // current LBA in the PTE and set the LBA bit (Section IV-B).
        BlockDeviceId bdev = vma->file->device();
        Lba lba = vma->file->lbaOf(page.index);
        as.pageTable().writePte(
            va, pte::makeLbaAugmented(bdev.sid, bdev.dev, lba, vma->prot));
        ++statLbaEvictions;
    } else {
        as.pageTable().writePte(va, 0);
        ++statPlainEvictions;
    }

    if (shootdown)
        shootdown(as, va);

    page.dirty = dirty;
    clearMapping(page);
    return dirty;
}

} // namespace hwdp::os
