/**
 * @file
 * Direction-tagged serialization visitor for machine checkpoints.
 *
 * Every stateful component implements one serialize(Serializer &)
 * method that both saves and restores: the archive carries the
 * direction, and each io() call either appends the value to the blob
 * or overwrites it from the blob. A single traversal for both
 * directions means save and restore cannot drift — the classic
 * symptom of paired save()/load() methods rotting apart.
 *
 * The format is a flat little-endian byte stream (checkpoints restore
 * on the host that wrote them; the bench protocol never ships blobs
 * across machines). Robustness against *logic* drift comes from
 * structure, not self-description:
 *
 *  - section(name): an FNV-1a tag of the section name is written and
 *    verified, so a reader that falls out of step fails at the next
 *    section boundary with both names' hashes in the error.
 *  - check(value): boot-derived structure (frame counts, topology,
 *    table bases) is written and *compared* on load instead of being
 *    overwritten — restoring onto a differently-built machine is an
 *    error, not a corruption.
 *
 * Version and config identity live in the checkpoint header
 * (system/checkpoint.hh); the Serializer itself is format-agnostic.
 */

#ifndef HWDP_SIM_SERIALIZE_HH
#define HWDP_SIM_SERIALIZE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hwdp::sim {

/** Thrown on any blob-format or machine-shape mismatch. */
class SerializeError : public std::runtime_error
{
  public:
    explicit SerializeError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

class Serializer
{
  public:
    enum class Dir { save, load };

    /** A saving archive writing into a fresh blob. */
    static Serializer saver() { return Serializer(Dir::save, nullptr, 0); }

    /**
     * A loading archive reading @p blob from @p offset, in place: the
     * caller keeps the blob alive and unchanged while the archive
     * reads, and no byte of it is copied.
     */
    static Serializer
    loader(const std::vector<std::uint8_t> &blob, std::size_t offset = 0)
    {
        Serializer s(Dir::load, blob.data(), blob.size());
        s.cursor = offset;
        return s;
    }
    /** A temporary blob would be gone before the archive reads it. */
    static Serializer loader(std::vector<std::uint8_t> &&,
                             std::size_t = 0) = delete;

    bool saving() const { return dir == Dir::save; }
    bool loading() const { return dir == Dir::load; }

    /** The blob written so far (saving archives). */
    const std::vector<std::uint8_t> &blob() const { return buf; }
    std::vector<std::uint8_t> takeBlob() { return std::move(buf); }

    /** Read cursor (loading archives). */
    std::size_t offset() const { return cursor; }

    /** True when a loading archive consumed the whole blob. */
    bool exhausted() const { return cursor == srcSize; }

    // ---- Scalars --------------------------------------------------------
    template <typename T>
    std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>
    io(T &v)
    {
        if (saving()) {
            const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
            buf.insert(buf.end(), p, p + sizeof(T));
        } else {
            need(sizeof(T));
            std::memcpy(&v, src + cursor, sizeof(T));
            cursor += sizeof(T);
        }
    }

    void
    io(bool &b)
    {
        std::uint8_t v = b ? 1 : 0;
        io(v);
        if (loading())
            b = v != 0;
    }

    void
    io(std::string &s)
    {
        std::uint64_t n = s.size();
        io(n);
        if (saving()) {
            buf.insert(buf.end(), s.begin(), s.end());
        } else {
            need(n);
            s.assign(reinterpret_cast<const char *>(src + cursor), n);
            cursor += n;
        }
    }

    // ---- Containers -----------------------------------------------------
    template <typename T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading())
            v.resize(n);
        ioRange(v.begin(), v.end());
    }

    template <typename T>
    void
    io(std::deque<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading())
            v.resize(n);
        ioRange(v.begin(), v.end());
    }

    template <typename T, std::size_t N>
    void
    io(std::array<T, N> &a)
    {
        ioRange(a.begin(), a.end());
    }

    template <typename A, typename B>
    void
    io(std::pair<A, B> &p)
    {
        io(p.first);
        io(p.second);
    }

    template <typename It>
    void
    ioRange(It first, It last)
    {
        for (; first != last; ++first)
            io(*first);
    }

    // ---- Structure guards ------------------------------------------------
    /**
     * Mark a section boundary. The FNV-1a hash of @p name is written
     * on save and verified on load; a mismatch throws SerializeError
     * naming the expected section.
     */
    void section(const char *name);

    /**
     * Boot-derived structure: @p v is written on save; on load the
     * stored value is *compared* against the live one and a mismatch
     * throws (restore targets must be booted identically, never
     * reshaped by the blob).
     */
    template <typename T>
    void
    check(const T &v, const char *what)
    {
        T stored = v;
        io(stored);
        if (loading() && !(stored == v))
            mismatch(what);
    }

    static std::uint64_t hashName(const char *name);

  private:
    Serializer(Dir d, const std::uint8_t *data, std::size_t size)
        : dir(d), src(data), srcSize(size)
    {
    }

    void need(std::size_t n) const;
    [[noreturn]] void mismatch(const char *what) const;

    Dir dir;
    std::vector<std::uint8_t> buf;   ///< Saving: the blob being written.
    const std::uint8_t *src;         ///< Loading: the caller's bytes.
    std::size_t srcSize;
    std::size_t cursor = 0;
};

/** Optional interface for caller-owned checkpoint state (workload
 *  stores, fault plans) passed to Checkpoint::save/restore. */
class Serializable
{
  public:
    virtual ~Serializable() = default;
    virtual void serialize(Serializer &s) = 0;
};

} // namespace hwdp::sim

#endif // HWDP_SIM_SERIALIZE_HH
