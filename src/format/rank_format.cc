/**
 * @file
 * Per-rank format model implementation.
 */

#include "format/rank_format.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

std::string
toString(RankFormatKind kind)
{
    switch (kind) {
      case RankFormatKind::U: return "U";
      case RankFormatKind::UB: return "UB";
      case RankFormatKind::B: return "B";
      case RankFormatKind::CP: return "CP";
      case RankFormatKind::RLE: return "RLE";
      case RankFormatKind::UOP: return "UOP";
    }
    SL_PANIC("unknown rank format");
}

int
RankFormat::metadataBits(std::int64_t fiber_shape) const
{
    if (explicit_bits > 0) {
        return explicit_bits;
    }
    return std::max(1, math::ceilLog2(fiber_shape));
}

namespace {

/**
 * P(run >= 2^run_bits - 1) under the geometric run-length law, or 1
 * when the tensor has no zeros to pad (both mean no padding).
 */
double
runOverflowProbability(double tensor_density, int run_bits)
{
    double max_run = std::pow(2.0, run_bits) - 1.0;
    double zero_frac = 1.0 - std::clamp(tensor_density, 0.0, 1.0);
    if (zero_frac <= 0.0) {
        return 1.0;
    }
    return std::pow(zero_frac, max_run);
}

/** Padding entries of @p occupancy nonzeros at overflow probability
 *  @p p_over. */
double
paddingAt(double occupancy, double p_over)
{
    if (p_over >= 1.0) {
        return 0.0;
    }
    return occupancy * p_over / (1.0 - p_over);
}

/** One run-overflow memo entry; run_bits -1 marks an empty slot. */
struct RunOverflowSlot
{
    double density = 0.0;
    int run_bits = -1;
    double p_over = 0.0;
};

constexpr std::size_t kRunOverflowSlots = 64;

} // namespace

double
rleExpectedPadding(double occupancy, double tensor_density, int run_bits)
{
    if (occupancy <= 0.0) {
        return 0.0;
    }
    return paddingAt(occupancy,
                     runOverflowProbability(tensor_density, run_bits));
}

double
rleExpectedPaddingMemoized(double occupancy, double tensor_density,
                           int run_bits)
{
    if (occupancy <= 0.0) {
        return 0.0;
    }
    thread_local RunOverflowSlot table[kRunOverflowSlots];
    std::uint64_t bits = 0;
    std::memcpy(&bits, &tensor_density, sizeof bits);
    RunOverflowSlot &slot = table[math::hashCombine(
                                      bits, static_cast<std::uint64_t>(
                                                run_bits)) %
                                  kRunOverflowSlots];
    // Compared bit for bit, so -0.0 and NaN densities get slots of
    // their own.
    if (slot.run_bits != run_bits ||
        std::memcmp(&slot.density, &tensor_density, sizeof bits) != 0) {
        slot = {tensor_density, run_bits,
                runOverflowProbability(tensor_density, run_bits)};
    }
    return paddingAt(occupancy, slot.p_over);
}

double
RankFormat::fiberMetadataBits(std::int64_t fiber_shape, double occupancy,
                              std::int64_t payload_index_space,
                              double tensor_density) const
{
    return metadataBitsWith(fiber_shape, occupancy, payload_index_space,
                            tensor_density, &rleExpectedPadding);
}

double
RankFormat::fiberMetadataBitsMemoized(std::int64_t fiber_shape,
                                      double occupancy,
                                      std::int64_t payload_index_space,
                                      double tensor_density) const
{
    return metadataBitsWith(fiber_shape, occupancy, payload_index_space,
                            tensor_density, &rleExpectedPaddingMemoized);
}

double
RankFormat::metadataBitsWith(std::int64_t fiber_shape, double occupancy,
                             std::int64_t payload_index_space,
                             double tensor_density,
                             double (*padding)(double, double, int)) const
{
    occupancy = std::max(0.0, occupancy);
    switch (kind) {
      case RankFormatKind::U:
        return 0.0;
      case RankFormatKind::UB:
      case RankFormatKind::B:
        return static_cast<double>(fiber_shape);
      case RankFormatKind::CP:
        return occupancy * metadataBits(fiber_shape);
      case RankFormatKind::RLE: {
        int bits = metadataBits(fiber_shape);
        double entries =
            occupancy + padding(occupancy, tensor_density, bits);
        return entries * bits;
      }
      case RankFormatKind::UOP: {
        int off_bits = explicit_bits > 0
            ? explicit_bits
            : std::max(1, math::ceilLog2(payload_index_space + 1));
        return static_cast<double>(fiber_shape + 1) * off_bits;
      }
    }
    SL_PANIC("unknown rank format");
}

} // namespace sparseloop
