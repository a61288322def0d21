#include "sim/serialize.hh"

#include <sstream>

namespace hwdp::sim {

std::uint64_t
Serializer::hashName(const char *name)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char *p = name; *p; ++p) {
        h ^= static_cast<std::uint8_t>(*p);
        h *= 1099511628211ULL;
    }
    return h;
}

void
Serializer::section(const char *name)
{
    std::uint64_t tag = hashName(name);
    std::uint64_t stored = tag;
    io(stored);
    if (loading() && stored != tag) {
        std::ostringstream os;
        os << "checkpoint section mismatch at offset "
           << (cursor - sizeof(std::uint64_t)) << ": expected '" << name
           << "' (tag 0x" << std::hex << tag << "), found tag 0x"
           << stored;
        throw SerializeError(os.str());
    }
}

void
Serializer::need(std::size_t n) const
{
    if (cursor > srcSize || n > srcSize - cursor) {
        std::ostringstream os;
        os << "checkpoint blob truncated: need " << n << " bytes at offset "
           << cursor << " of " << srcSize;
        throw SerializeError(os.str());
    }
}

void
Serializer::mismatch(const char *what) const
{
    std::ostringstream os;
    os << "checkpoint does not match this machine: '" << what
       << "' differs (restore targets must be booted with the identical "
          "recipe as the saved machine)";
    throw SerializeError(os.str());
}

} // namespace hwdp::sim
