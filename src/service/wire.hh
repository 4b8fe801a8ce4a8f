/**
 * @file
 * Wire serialization for the evaluation service (service/protocol.hh)
 * and the cache snapshot format (service/persistence.hh).
 *
 * The encoding is a flat little-endian byte stream: fixed-width
 * integers are stored least-significant byte first on every host,
 * big-endian ones included; doubles are stored by IEEE-754 bit pattern
 * (decode returns the exact same bits — the service's bit-identity
 * contract rides on this); strings and vectors are length-prefixed
 * with a u32 count. There is no alignment, no padding, and no
 * self-description; both ends agree on the schema via the protocol /
 * snapshot version numbers.
 *
 * `WireWriter` appends into a reserve that grows geometrically, and
 * stores each fixed-width value through one pointer into it, so
 * encoding costs about one store per field rather than one
 * vector append per byte. How it appends does not change the bytes.
 *
 * `WireReader` is bounds-checked everywhere: any read past the end of
 * the buffer — a truncated frame, a corrupt length field — throws
 * `WireError` instead of reading garbage. Element counts are
 * sanity-checked against the bytes remaining before any allocation,
 * so a hostile 4-billion-element length prefix is rejected up front
 * rather than driving a giant allocation.
 *
 * Domain codecs cover exactly the types that cross a process
 * boundary: `Mapping` (requests and search replies), `EvalKey` /
 * `DenseKey` / `EvalResult` / `DenseTraffic` (cache snapshots and
 * evaluate replies), and `MetricVector` (warm-start elites). Each
 * `encode`/`decode` pair round-trips to an object that compares equal
 * under the type's exact (bitwise-double) `operator==`.
 */

#ifndef SPARSELOOP_SERVICE_WIRE_HH
#define SPARSELOOP_SERVICE_WIRE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mapper/objective.hh"
#include "model/eval_cache.hh"

namespace sparseloop {

/** A malformed, truncated, or out-of-bounds wire payload. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &msg) : std::runtime_error(msg)
    {}
};

/**
 * Append-only little-endian byte-stream builder. The storage vector's
 * size is the reserve; the first `size()` bytes of it are the bytes
 * written, and `buffer()`/`take()` trim the reserve away.
 */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { *append(1) = v; }
    void u16(std::uint16_t v) { storeLE(append(2), v); }
    void u32(std::uint32_t v) { storeLE(append(4), v); }
    void u64(std::uint64_t v) { storeLE(append(8), v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern; exact round trip. */
    void f64(double v)
    {
        static_assert(sizeof(double) == sizeof(std::uint64_t),
                      "IEEE-754 binary64 expected");
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** u32 byte count + raw bytes. */
    void str(const std::string &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        bytes(v.data(), v.size());
    }
    void bytes(const void *data, std::size_t n)
    {
        if (n > 0) {
            std::memcpy(append(n), data, n);
        }
    }

    /** Overwrite 4 already-written bytes at @p offset with @p v (a
     *  length field reserved before its body was encoded). */
    void patchU32(std::size_t offset, std::uint32_t v)
    {
        if (offset > len_ || len_ - offset < 4) {
            throw WireError("patch past the written bytes");
        }
        storeLE(buf_.data() + offset, v);
    }

    /** The bytes written so far. Writing may continue; the returned
     *  reference is exact only until the next write. */
    const std::vector<std::uint8_t> &buffer();
    /** Move the bytes written out; the writer is empty afterwards. */
    std::vector<std::uint8_t> take();
    std::size_t size() const { return len_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t len_ = 0;

    /** Claim @p n bytes at the end of the written bytes. */
    std::uint8_t *append(std::size_t n)
    {
        if (buf_.size() - len_ < n) {
            grow(n);
        }
        std::uint8_t *p = buf_.data() + len_;
        len_ += n;
        return p;
    }
    void grow(std::size_t n);

    /** Least-significant byte first; compilers merge the byte stores
     *  into one store on little-endian hosts. */
    template <typename T>
    static void storeLE(std::uint8_t *p, T v)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }
};

/**
 * Bounds-checked reader over a borrowed byte span (which must outlive
 * the reader). Every accessor throws `WireError` rather than reading
 * past the end.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}
    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : WireReader(buf.data(), buf.size())
    {}

    std::uint8_t u8() { return *skip(1); }
    std::uint16_t u16() { return loadLE<std::uint16_t>(skip(2)); }
    std::uint32_t u32() { return loadLE<std::uint32_t>(skip(4)); }
    std::uint64_t u64() { return loadLE<std::uint64_t>(skip(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    bool boolean() { return u8() != 0; }
    std::string str();

    /**
     * A u32 element count, validated against the bytes remaining:
     * decoding @p min_element_bytes per element must fit in the rest
     * of the buffer. Rejects corrupt giant counts before any
     * allocation happens.
     */
    std::size_t count(std::size_t min_element_bytes = 1);

    /** Consume @p n bytes and return a borrowed pointer to them
     *  (valid while the underlying buffer lives). */
    const std::uint8_t *skip(std::size_t n)
    {
        if (size_ - pos_ < n) {
            truncated(n);
        }
        const std::uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    std::size_t remaining() const { return size_ - pos_; }
    /** True when every byte has been consumed. */
    bool done() const { return pos_ == size_; }
    /** Throw WireError unless the payload was consumed exactly. */
    void expectDone(const char *what) const;

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;

    [[noreturn]] void truncated(std::size_t n) const;

    /** Least-significant byte first, as one OR of shifted byte loads
     *  (compilers fold it into one load on little-endian hosts). */
    template <typename T, std::size_t... I>
    static T loadLE(const std::uint8_t *p, std::index_sequence<I...>)
    {
        return static_cast<T>(((static_cast<T>(p[I]) << (8 * I)) | ...));
    }
    template <typename T>
    static T loadLE(const std::uint8_t *p)
    {
        return loadLE<T>(p, std::make_index_sequence<sizeof(T)>{});
    }
};

/** @name Domain codecs (see file comment for the round-trip contract).
 *  @{ */
void encode(WireWriter &w, const Mapping &mapping);
Mapping decodeMapping(WireReader &r);

void encode(WireWriter &w, const EvalKey &key);
EvalKey decodeEvalKey(WireReader &r);

void encode(WireWriter &w, const DenseKey &key);
DenseKey decodeDenseKey(WireReader &r);

void encode(WireWriter &w, const DenseTraffic &dense);
DenseTraffic decodeDenseTraffic(WireReader &r);

void encode(WireWriter &w, const SparseTraffic &sparse);
SparseTraffic decodeSparseTraffic(WireReader &r);

void encode(WireWriter &w, const EvalResult &result);
EvalResult decodeEvalResult(WireReader &r);

void encode(WireWriter &w, const MetricVector &metrics);
MetricVector decodeMetricVector(WireReader &r);
/** @} */

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_WIRE_HH
