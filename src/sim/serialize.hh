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
#include <iterator>
#include <memory>
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

    /** A saving archive writing into a fresh blob of @p capacity. */
    static Serializer
    saver(std::size_t capacity = 0)
    {
        Serializer s(Dir::save, nullptr, 0);
        s.buf.reserve(capacity);
        return s;
    }

    /**
     * A saving archive that keeps no bytes: offset() counts the bytes
     * a saver would write, so the real blob can be allocated once.
     */
    static Serializer
    sizer()
    {
        Serializer s(Dir::save, nullptr, 0);
        s.sizing = true;
        return s;
    }

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

    /** Read cursor (loading archives) or bytes counted (sizers). */
    std::size_t offset() const { return cursor; }

    /** True when a loading archive consumed the whole blob. */
    bool exhausted() const { return cursor == srcSize; }

    // ---- Scalars --------------------------------------------------------
    template <typename T>
    std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>
    io(T &v)
    {
        ioBytes(&v, sizeof(T));
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
            ioBytes(s.data(), n);
        } else {
            need(n);
            s.assign(reinterpret_cast<const char *>(src + cursor), n);
            cursor += n;
        }
    }

    // ---- Containers -----------------------------------------------------
    // A load checks a stored count against the bytes left before it
    // allocates: every element takes at least one byte.
    template <typename T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading()) {
            need(n);
            v.resize(n);
        }
        ioRange(v.begin(), v.end());
    }

    template <typename T>
    void
    io(std::deque<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading()) {
            need(n);
            v.resize(n);
        }
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

    /**
     * A contiguous range of arithmetic elements (page-table entries,
     * predictor counters, bitmap words) moves in one copy; any other
     * range goes element by element. The bytes are the same either
     * way.
     */
    template <typename It>
    void
    ioRange(It first, It last)
    {
        using T = std::iter_value_t<It>;
        if constexpr (std::contiguous_iterator<It> &&
                      std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            ioBytes(std::to_address(first),
                    static_cast<std::size_t>(last - first) * sizeof(T));
        } else {
            for (; first != last; ++first)
                io(*first);
        }
    }

    /**
     * Sparse records: a presence bitmap over @p records, then only the
     * records that differ from their blank, each through @p body. A
     * load sets every absent record to its blank. @p blank maps a
     * record to its blank (an empty slot's value, which may keep
     * fields of the slot itself, such as a frame's PFN). Returns the
     * number of present records.
     */
    template <typename Range, typename Blank, typename Body>
    std::uint64_t
    sparse(Range &records, Blank blank, Body body)
    {
        const std::size_t n = std::size(records);
        std::vector<std::uint64_t> present((n + 63) / 64);
        if (saving()) {
            std::size_t i = 0;
            for (const auto &r : records) {
                if (!(r == blank(r)))
                    present[i / 64] |= std::uint64_t(1) << (i % 64);
                ++i;
            }
        }
        ioRange(present.begin(), present.end());
        std::uint64_t count = 0;
        std::size_t i = 0;
        for (auto &r : records) {
            if (present[i / 64] >> (i % 64) & 1) {
                body(r);
                ++count;
            } else if (loading()) {
                r = blank(r);
            }
            ++i;
        }
        return count;
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

    /** Append or read @p n raw bytes at @p p. */
    void
    ioBytes(void *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (sizing) {
            cursor += n;
        } else if (saving()) {
            const auto *b = static_cast<const std::uint8_t *>(p);
            buf.insert(buf.end(), b, b + n);
        } else {
            need(n);
            std::memcpy(p, src + cursor, n);
            cursor += n;
        }
    }

    void need(std::size_t n) const;
    [[noreturn]] void mismatch(const char *what) const;

    Dir dir;
    std::vector<std::uint8_t> buf;   ///< Saving: the blob being written.
    const std::uint8_t *src;         ///< Loading: the caller's bytes.
    std::size_t srcSize;
    std::size_t cursor = 0;
    bool sizing = false;             ///< Saving, but only counting.
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
