/**
 * @file
 * Per-dimension (per-rank) representation format models (Sec. 3.1.1 and
 * Sec. 5.3.3). Each model answers: given a fiber of a given shape and
 * occupancy, how many metadata bits does this rank contribute, and does
 * it keep all coordinates (uncompressed) or only nonzeros (compressed)?
 */

#ifndef SPARSELOOP_FORMAT_RANK_FORMAT_HH
#define SPARSELOOP_FORMAT_RANK_FORMAT_HH

#include <cstdint>
#include <string>

namespace sparseloop {

/** The per-rank formats of Fig. 2 (plus uncompressed-with-bitmask). */
enum class RankFormatKind
{
    U,    ///< Uncompressed: explicit values, no metadata.
    UB,   ///< Uncompressed data plus a per-element bitmask (Eyeriss).
    B,    ///< Bitmask: 1 bit per coordinate, compressed payloads.
    CP,   ///< Coordinate-Payload: explicit coordinates per nonzero.
    RLE,  ///< Run-Length Encoding: zero-run length per nonzero.
    UOP,  ///< Uncompressed Offset Pairs: start/end offsets (CSR rows).
};

/** Printable name for a per-rank format. */
std::string toString(RankFormatKind kind);

/** One rank of a hierarchical tensor format. */
struct RankFormat
{
    RankFormatKind kind = RankFormatKind::U;

    /**
     * Bit width of a metadata word for CP coordinates / RLE run lengths.
     * 0 means "derive from the fiber shape" (ceil(log2(shape))).
     */
    int explicit_bits = 0;

    /** Whether payloads below this rank keep only nonzero coordinates. */
    bool compressed() const
    {
        return kind == RankFormatKind::B || kind == RankFormatKind::CP ||
               kind == RankFormatKind::RLE || kind == RankFormatKind::UOP;
    }

    /** Coordinate/run bit width for a fiber of the given shape. */
    int metadataBits(std::int64_t fiber_shape) const;

    /**
     * Expected metadata bits contributed by one fiber.
     *
     * @param fiber_shape number of possible coordinates in the fiber.
     * @param occupancy expected number of present coordinates.
     * @param payload_index_space size of the space UOP offsets index
     *        (elements under this fiber); ignored by other formats.
     * @param tensor_density overall tensor density (used by the RLE
     *        run-length overflow estimate).
     */
    double fiberMetadataBits(std::int64_t fiber_shape, double occupancy,
                             std::int64_t payload_index_space,
                             double tensor_density) const;

    /** `fiberMetadataBits` with RLE padding from
     *  `rleExpectedPaddingMemoized`; bit-identical. */
    double fiberMetadataBitsMemoized(std::int64_t fiber_shape,
                                     double occupancy,
                                     std::int64_t payload_index_space,
                                     double tensor_density) const;

  private:
    /** The shared body, with @p padding computing RLE padding. */
    double metadataBitsWith(std::int64_t fiber_shape, double occupancy,
                            std::int64_t payload_index_space,
                            double tensor_density,
                            double (*padding)(double, double, int)) const;
};

/**
 * Expected number of RLE zero-padding entries for a fiber: runs of
 * zeros longer than the encodable maximum (2^bits - 1) require extra
 * explicit zero entries. Under uniform sparsity with density d, run
 * lengths are ~geometric(d), so each nonzero expects
 * (1-d)^L / (1 - (1-d)^L) padding entries with L = 2^bits - 1.
 */
double rleExpectedPadding(double occupancy, double tensor_density,
                          int run_bits);

/**
 * `rleExpectedPadding` with the run-overflow probability
 * (1-d)^(2^bits - 1) looked up in a per-thread, direct-mapped memo
 * keyed by (density, run bits): the same double, term for term, without
 * the two `pow` calls on a hit.
 */
double rleExpectedPaddingMemoized(double occupancy, double tensor_density,
                                  int run_bits);

} // namespace sparseloop

#endif // SPARSELOOP_FORMAT_RANK_FORMAT_HH
