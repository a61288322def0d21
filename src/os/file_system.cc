#include "os/file_system.hh"

#include <algorithm>

#include "os/pte.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::os {

void
FileSystem::serialize(sim::Serializer &s)
{
    s.section("filesystem");
    rng.serialize(s);
    s.io(nextLba);
    std::uint64_t n = files.size();
    s.check(n, "file count");
    for (auto &f : files) {
        s.check(f->fid, "file id");
        s.check(f->nPages, "file size");
        std::uint64_t nr = f->runs.size();
        s.io(nr);
        if (s.loading()) {
            if (nr == 0 || nr > f->nPages)
                f->badRuns("holds " + std::to_string(nr) + " runs");
            f->runs.resize(nr);
        }
        for (File::Run &r : f->runs) {
            s.io(r.page);
            s.io(r.lba);
        }
        if (s.loading())
            f->checkRuns(nextLba);
        s.io(f->marked);
    }
}

File::File(std::uint32_t id, std::string name, std::uint64_t n_pages,
           BlockDeviceId bdev)
    : fid(id), fname(std::move(name)), bdev(bdev), nPages(n_pages)
{
}

std::size_t
File::runOf(std::uint64_t index) const
{
    auto it = std::upper_bound(
        runs.begin(), runs.end(), index,
        [](std::uint64_t i, const Run &r) { return i < r.page; });
    return static_cast<std::size_t>(it - runs.begin()) - 1;
}

Lba
File::lbaOf(std::uint64_t index) const
{
    if (index >= nPages)
        panic("file '", fname, "': page index ", index, " beyond EOF");
    const Run &r = runs[runOf(index)];
    return r.lba + (index - r.page);
}

void
File::checkRuns(Lba lba_end) const
{
    if (runs.front().page != 0)
        badRuns("starts at page " + std::to_string(runs.front().page));
    if (runs.back().page >= nPages)
        badRuns("has a run at page " + std::to_string(runs.back().page) +
                ", past EOF at " + std::to_string(nPages));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const bool last = i + 1 == runs.size();
        if (!last && runs[i + 1].page <= runs[i].page)
            badRuns("has a run at page " +
                    std::to_string(runs[i + 1].page) + " after one at " +
                    std::to_string(runs[i].page));
        const std::uint64_t len =
            (last ? nPages : runs[i + 1].page) - runs[i].page;
        if (runs[i].lba > lba_end || len > lba_end - runs[i].lba)
            badRuns("has a run at LBA " + std::to_string(runs[i].lba) +
                    " reaching past the next free LBA " +
                    std::to_string(lba_end));
    }
}

void
File::badRuns(const std::string &what) const
{
    throw sim::SerializeError("restore: block map of '" + fname + "' " +
                              what);
}

void
File::appendRun(std::uint64_t page, Lba lba)
{
    if (!runs.empty() && runs.back().lba + (page - runs.back().page) == lba)
        return;
    runs.push_back(Run{page, lba});
}

void
File::setLba(std::uint64_t index, Lba lba)
{
    std::size_t at = runOf(index);
    const Run old = runs[at];
    const std::uint64_t end =
        at + 1 < runs.size() ? runs[at + 1].page : nPages;
    // Up to three pieces: the pages before @p index keep their slot,
    // the page itself, and the pages after it on their old LBAs.
    if (index == old.page)
        runs[at].lba = lba;
    else
        runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(++at),
                    Run{index, lba});
    if (index + 1 < end)
        runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(at + 1),
                    Run{index + 1, old.lba + (index + 1 - old.page)});
}

FileSystem::FileSystem(sim::Rng rng, std::uint64_t extent_pages)
    : rng(rng), extentPages(extent_pages)
{
    if (extent_pages == 0)
        fatal("file system: extent size must be positive");
}

File *
FileSystem::createFile(const std::string &name, std::uint64_t n_pages,
                       BlockDeviceId bdev)
{
    if (n_pages == 0)
        fatal("file system: cannot create empty file '", name, "'");
    if (lookup(name))
        fatal("file system: file '", name, "' already exists");
    auto id = static_cast<std::uint32_t>(files.size());
    files.push_back(std::make_unique<File>(id, name, n_pages, bdev));
    File &f = *files.back();
    allocateExtents(f);
    return &f;
}

void
FileSystem::allocateExtents(File &f)
{
    std::uint64_t idx = 0;
    while (idx < f.nPages) {
        // Extent lengths vary around the mean; seams skip a few blocks
        // to model allocation by other files.
        std::uint64_t len = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   rng.normal(static_cast<double>(extentPages),
                              static_cast<double>(extentPages) / 4.0)));
        len = std::min(len, f.nPages - idx);
        f.appendRun(idx, nextLba);
        nextLba += len + rng.range(16);
        idx += len;
        // The top LBA is reserved as the anonymous zero-fill marker.
        if (nextLba >= pte::zeroFillLba)
            fatal("file system: device LBA space exhausted");
    }
}

File *
FileSystem::lookup(const std::string &name)
{
    for (auto &f : files) {
        if (f->name() == name)
            return f.get();
    }
    return nullptr;
}

File *
FileSystem::byId(std::uint32_t id)
{
    if (id >= files.size())
        return nullptr;
    return files[id].get();
}

void
FileSystem::remapPage(File &file, std::uint64_t index)
{
    if (index >= file.nPages)
        panic("remapPage: index ", index, " beyond EOF of '", file.name(),
              "'");
    Lba lba = nextLba;
    file.setLba(index, lba);
    nextLba += 1 + rng.range(4);
    if (onRemap)
        onRemap(file, index, lba);
}

} // namespace hwdp::os
