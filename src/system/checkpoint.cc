#include "system/checkpoint.hh"

#include <cstdio>
#include <fstream>

#include "sim/serialize.hh"
#include "system/system.hh"
#include "testing/logical_state.hh"

namespace hwdp::system {

namespace {

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

std::uint64_t
Checkpoint::configHash(const MachineConfig &cfg)
{
    // describe() covers mode, topology, caches, memory, storage and
    // SMU geometry; fold in the knobs it omits but a restore depends
    // on.
    std::string d = cfg.describe();
    std::uint64_t h = fnv1a(d.data(), d.size(), 14695981039346656037ULL);
    h = fnv1a(&cfg.seed, sizeof(cfg.seed), h);
    h = fnv1a(&cfg.hwStallTimeout, sizeof(cfg.hwStallTimeout), h);
    h = fnv1a(&cfg.kpooldBatch, sizeof(cfg.kpooldBatch), h);
    // describe() prints the device count only on multi-socket
    // machines; a single-socket multi-device machine must not share
    // blobs with the single-device shape. Same for the free-queue
    // split and the SMU prefetch flag, which restore validates.
    h = fnv1a(&cfg.nDevices, sizeof(cfg.nDevices), h);
    std::uint8_t per_core = cfg.smu.perCoreFreeQueues ? 1 : 0;
    h = fnv1a(&per_core, sizeof(per_core), h);
    std::uint8_t seq_pf = cfg.smu.sequentialPrefetch ? 1 : 0;
    h = fnv1a(&seq_pf, sizeof(seq_pf), h);
    return h;
}

std::vector<std::uint8_t>
Checkpoint::save(System &sys, CheckpointStats *st)
{
    sys.quiesce();

    const Tick tick = sys.now();
    const std::uint64_t logical = testing::logicalStateHash(sys);
    auto write = [&](sim::Serializer &s) {
        std::uint32_t magic = magicWord;
        std::uint32_t version = formatVersion;
        std::uint64_t cfg_hash = configHash(sys.config());
        Tick t = tick;
        std::uint64_t footer = logical;
        s.io(magic);
        s.io(version);
        s.io(cfg_hash);
        s.io(t);
        sys.serialize(s);
        s.io(footer);
    };
    // Count the bytes first and allocate the blob once at its size: a
    // blob grown by doubling holds its old and new buffers at once,
    // and that copy set the process's peak memory.
    sim::Serializer sizer = sim::Serializer::sizer();
    write(sizer);
    sim::Serializer s = sim::Serializer::saver(sizer.offset());
    write(s);
    if (s.blob().size() != sizer.offset())
        throw sim::SerializeError(
            "checkpoint: the machine wrote " +
            std::to_string(s.blob().size()) + " bytes after counting " +
            std::to_string(sizer.offset()));

    if (st) {
        st->blobBytes = s.blob().size();
        st->tick = tick;
        st->logicalHash = logical;
    }
    return s.takeBlob();
}

void
Checkpoint::restore(System &sys, const std::vector<std::uint8_t> &blob,
                    CheckpointStats *st)
{
    sim::Serializer s = sim::Serializer::loader(blob);

    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint64_t cfg_hash = 0;
    Tick tick = 0;
    s.io(magic);
    if (magic != magicWord)
        throw sim::SerializeError(
            "checkpoint: bad magic (not a checkpoint blob)");
    s.io(version);
    if (version != formatVersion)
        throw sim::SerializeError(
            "checkpoint: format version " + std::to_string(version) +
            " does not match this build's version " +
            std::to_string(formatVersion));
    s.io(cfg_hash);
    if (cfg_hash != configHash(sys.config()))
        throw sim::SerializeError(
            "checkpoint: blob was saved from a differently configured "
            "machine; restore targets must be booted with the saved "
            "machine's recipe");
    s.io(tick);

    sys.serialize(s);

    std::uint64_t logical = 0;
    s.io(logical);
    if (!s.exhausted())
        throw sim::SerializeError(
            "checkpoint: trailing bytes after the logical-state hash");
    std::uint64_t restored = testing::logicalStateHash(sys);
    if (restored != logical)
        throw sim::SerializeError(
            "checkpoint: restored machine's logical state diverges "
            "from the saved machine (walk hash mismatch)");

    sys.onRestored(blob.size());
    if (st) {
        st->blobBytes = blob.size();
        st->tick = tick;
        st->logicalHash = logical;
    }
}

void
Checkpoint::saveFile(System &sys, const std::string &path,
                     CheckpointStats *st)
{
    std::vector<std::uint8_t> blob = save(sys, st);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw sim::SerializeError(
            "checkpoint: cannot open '" + path + "' for writing");
    f.write(reinterpret_cast<const char *>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    if (!f)
        throw sim::SerializeError(
            "checkpoint: short write to '" + path + "'");
}

bool
Checkpoint::restoreFile(System &sys, const std::string &path,
                        CheckpointStats *st)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f)
        return false;
    auto size = static_cast<std::size_t>(f.tellg());
    f.seekg(0);
    std::vector<std::uint8_t> blob(size);
    f.read(reinterpret_cast<char *>(blob.data()),
           static_cast<std::streamsize>(size));
    if (!f)
        throw sim::SerializeError(
            "checkpoint: short read from '" + path + "'");
    restore(sys, blob, st);
    return true;
}

} // namespace hwdp::system
