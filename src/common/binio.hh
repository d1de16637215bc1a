/**
 * @file
 * Checksummed binary stream primitives shared by every on-disk
 * format in the repo: the trace serializers (v4, src/trace) and
 * the live-points checkpoint store (v1, src/sample).
 *
 * A writer mixes every byte it emits into a streaming FNV-1a sum so
 * the file can end with a self-describing checksum; the reader
 * accumulates the same sum while parsing, so truncation and bit rot
 * are both caught on reload without a second pass.
 */

#ifndef OSCACHE_COMMON_BINIO_HH
#define OSCACHE_COMMON_BINIO_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

namespace oscache
{
namespace binio
{

/** Streaming FNV-1a over every byte written (or read). */
class ChecksumStream
{
  public:
    void
    mix(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= bytes[i];
            state *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &out) : os(out) {}

    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        char buf[sizeof(T)];
        std::memcpy(buf, &value, sizeof(T));
        os.write(buf, sizeof(T));
        sum.mix(buf, sizeof(T));
    }

    /** Write @p size raw bytes from @p data. */
    void
    putBytes(const void *data, std::size_t size)
    {
        os.write(static_cast<const char *>(data), std::streamsize(size));
        sum.mix(data, size);
    }

    std::uint64_t checksum() const { return sum.value(); }

  private:
    std::ostream &os;
    ChecksumStream sum;
};

class BinaryReader
{
  public:
    explicit BinaryReader(std::istream &in) : is(in) {}

    template <typename T>
    bool
    get(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        char buf[sizeof(T)];
        is.read(buf, sizeof(T));
        if (is.gcount() != std::streamsize(sizeof(T)))
            return false;
        std::memcpy(&value, buf, sizeof(T));
        sum.mix(buf, sizeof(T));
        return true;
    }

    /** Read @p size raw bytes into @p data. */
    bool
    getBytes(char *data, std::size_t size)
    {
        is.read(data, std::streamsize(size));
        if (is.gcount() != std::streamsize(size))
            return false;
        sum.mix(data, size);
        return true;
    }

    std::uint64_t checksum() const { return sum.value(); }

  private:
    std::istream &is;
    ChecksumStream sum;
};

} // namespace binio
} // namespace oscache

#endif // OSCACHE_COMMON_BINIO_HH
