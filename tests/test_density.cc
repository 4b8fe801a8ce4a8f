/**
 * @file
 * Unit and property tests for the statistical density models, including
 * cross-validation of the statistical laws against actual data.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "density/actual_data.hh"
#include "density/banded.hh"
#include "density/hypergeometric.hh"
#include "density/structured.hh"
#include "tensor/generate.hh"

namespace sparseloop {
namespace {

TEST(Hypergeometric, TensorDensityRoundTrip)
{
    HypergeometricDensity m(1024, 0.25);
    EXPECT_NEAR(m.tensorDensity(), 0.25, 1e-9);
    EXPECT_EQ(m.nonzeroCount(), 256);
}

TEST(Hypergeometric, ExpectedOccupancyIsLinear)
{
    HypergeometricDensity m(1024, 0.25);
    EXPECT_NEAR(m.expectedOccupancy(64), 16.0, 1e-9);
    EXPECT_NEAR(m.expectedOccupancy(1), 0.25, 1e-9);
}

TEST(Hypergeometric, ProbEmptySingleElement)
{
    HypergeometricDensity m(1000, 0.3);
    EXPECT_NEAR(m.probEmpty(1), 0.7, 1e-9);
}

TEST(Hypergeometric, ProbEmptyMonotoneInTileSize)
{
    HypergeometricDensity m(4096, 0.1);
    double prev = 1.0;
    for (std::int64_t s : {1, 2, 4, 8, 16, 32, 64}) {
        double p = m.probEmpty(s);
        EXPECT_LE(p, prev + 1e-12);
        prev = p;
    }
}

TEST(Hypergeometric, DistributionNormalizes)
{
    HypergeometricDensity m(256, 0.5);
    auto dist = m.distribution(16);
    EXPECT_NEAR(dist.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(dist.mean(), 8.0, 1e-6);
}

TEST(Hypergeometric, DenseTensorNeverEmpty)
{
    HypergeometricDensity m(64, 1.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 0.0);
    EXPECT_EQ(m.maxOccupancy(4), 4);
}

TEST(Hypergeometric, EmptyTensorAlwaysEmpty)
{
    HypergeometricDensity m(64, 0.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 1.0);
}

TEST(Hypergeometric, RejectsBadDensity)
{
    EXPECT_THROW(HypergeometricDensity(64, 1.5), FatalError);
    EXPECT_THROW(HypergeometricDensity(64, -0.1), FatalError);
}

TEST(Hypergeometric, MatchesActualUniformData)
{
    // The statistical law should track concrete uniform data closely.
    auto data = std::make_shared<SparseTensor>(
        generateUniform({64, 64}, 0.2, 77));
    ActualDataDensity actual(data);
    HypergeometricDensity model(64 * 64, 0.2);
    for (std::int64_t shape : {4, 16, 64}) {
        EXPECT_NEAR(model.expectedOccupancy(shape),
                    actual.expectedOccupancyShaped({1, shape}), 0.15)
            << "tile " << shape;
        EXPECT_NEAR(model.probEmpty(shape),
                    actual.probEmptyShaped({1, shape}), 0.05)
            << "tile " << shape;
    }
}

TEST(FixedStructured, TwoFourBasics)
{
    FixedStructuredDensity m(2, 4);
    EXPECT_DOUBLE_EQ(m.tensorDensity(), 0.5);
    // Whole blocks are deterministic.
    EXPECT_DOUBLE_EQ(m.expectedOccupancy(4), 2.0);
    EXPECT_DOUBLE_EQ(m.expectedOccupancy(8), 4.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 0.0);
    EXPECT_EQ(m.maxOccupancy(8), 4);
}

TEST(FixedStructured, PartialBlockIsStochastic)
{
    FixedStructuredDensity m(2, 4);
    // One element of a 2:4 block: empty with probability 1/2.
    EXPECT_NEAR(m.probEmpty(1), 0.5, 1e-9);
    // Two elements: both zero with prob C(2,2)/C(4,2) = 1/6.
    EXPECT_NEAR(m.probEmpty(2), 1.0 / 6.0, 1e-9);
    EXPECT_NEAR(m.expectedOccupancy(2), 1.0, 1e-9);
}

TEST(FixedStructured, DistributionDeterministicOnBlocks)
{
    FixedStructuredDensity m(2, 4);
    auto dist = m.distribution(12);
    EXPECT_NEAR(dist.probOf(6), 1.0, 1e-12);
}

TEST(FixedStructured, RejectsInvalidStructure)
{
    EXPECT_THROW(FixedStructuredDensity(5, 4), FatalError);
    EXPECT_THROW(FixedStructuredDensity(1, 0), FatalError);
}

TEST(FixedStructured, MatchesGeneratedData)
{
    auto data = std::make_shared<SparseTensor>(
        generateStructured({32, 32}, 2, 4, 5));
    ActualDataDensity actual(data);
    FixedStructuredDensity model(2, 4);
    EXPECT_NEAR(model.expectedOccupancy(4),
                actual.expectedOccupancyShaped({1, 4}), 1e-9);
    EXPECT_NEAR(model.probEmpty(4),
                actual.probEmptyShaped({1, 4}), 1e-9);
}

TEST(Banded, DensityMatchesGeometry)
{
    // 8x8 with half-bandwidth 1: band has 8 + 7 + 7 = 22 elements.
    BandedDensity m(8, 8, 1, 1.0);
    EXPECT_NEAR(m.tensorDensity(), 22.0 / 64.0, 1e-9);
    EXPECT_TRUE(m.coordinateDependent());
}

TEST(Banded, OffDiagonalTilesAreEmpty)
{
    BandedDensity m(16, 16, 1, 1.0);
    EXPECT_EQ(m.bandElementsInTile({0, 8}, {4, 4}), 0);
    EXPECT_GT(m.bandElementsInTile({0, 0}, {4, 4}), 0);
    // 4x4 tiling of a 16x16 band: 4 diagonal tiles plus 6 corner
    // touching tiles are non-empty, the remaining 6 of 16 are empty.
    double p_empty = m.probEmptyShaped({4, 4});
    EXPECT_NEAR(p_empty, 6.0 / 16.0, 1e-12);
}

TEST(Banded, MatchesGeneratedData)
{
    auto data = std::make_shared<SparseTensor>(
        generateBanded(32, 32, 2, 1.0, 9));
    ActualDataDensity actual(data);
    BandedDensity model(32, 32, 2, 1.0);
    EXPECT_NEAR(model.tensorDensity(), actual.tensorDensity(), 1e-9);
    EXPECT_NEAR(model.probEmptyShaped({8, 8}),
                actual.probEmptyShaped({8, 8}), 1e-9);
    EXPECT_NEAR(model.expectedOccupancyShaped({8, 8}),
                actual.expectedOccupancyShaped({8, 8}), 1e-9);
}

TEST(ActualData, ExactTileHistogram)
{
    auto data = std::make_shared<SparseTensor>(Shape{4, 4});
    data->set({0, 0}, 1.0);
    data->set({0, 1}, 1.0);
    data->set({3, 3}, 1.0);
    ActualDataDensity m(data);
    auto dist = m.distributionShaped({2, 2});
    // Tiles: (0,0) has 2 nonzeros, (1,1) has 1, two tiles empty.
    EXPECT_NEAR(dist.probOf(0), 0.5, 1e-12);
    EXPECT_NEAR(dist.probOf(1), 0.25, 1e-12);
    EXPECT_NEAR(dist.probOf(2), 0.25, 1e-12);
    EXPECT_EQ(m.maxOccupancyShaped({2, 2}), 2);
}

TEST(ActualData, WholeTensorTile)
{
    auto data = std::make_shared<SparseTensor>(
        generateUniform({8, 8}, 0.5, 3));
    ActualDataDensity m(data);
    EXPECT_NEAR(m.expectedOccupancyShaped({8, 8}),
                static_cast<double>(data->nonzeroCount()), 1e-9);
    EXPECT_DOUBLE_EQ(m.probEmptyShaped({8, 8}), 0.0);
}

/**
 * Property: Fig. 9 behavior — under a uniform model, larger tiles have
 * density distributions concentrating around the tensor density.
 */
class FiberShapeSweep : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(FiberShapeSweep, DensityConcentratesWithShape)
{
    const double d = 0.5;
    HypergeometricDensity m(1 << 16, d);
    std::int64_t shape = GetParam();
    auto dist = m.distribution(shape);
    EXPECT_NEAR(dist.totalMass(), 1.0, 1e-9);
    // Variance of the tile density shrinks as the tile grows.
    double mean = dist.mean() / shape;
    double var = 0.0;
    for (const auto &kv : dist.pmf) {
        double dens = static_cast<double>(kv.first) / shape;
        var += kv.second * (dens - mean) * (dens - mean);
    }
    // Hypergeometric density variance ~ d(1-d)/s.
    EXPECT_NEAR(var, d * (1 - d) / shape, 0.05 / shape);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FiberShapeSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

// ---------------------------------------------------------------------------
// probEmptyMemoized: the per-thread probEmpty memo of the engine's
// Step-2 hot path.
// ---------------------------------------------------------------------------

/** Bitwise double equality (distinguishes -0.0, matches NaN). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A coordinate-independent (or not) model that counts its probEmpty
 *  calls; the answer is an arbitrary pure function of the volume. */
class CountingDensity : public DensityModel
{
  public:
    explicit CountingDensity(bool coordinate_dependent)
        : coordinate_dependent_(coordinate_dependent)
    {}
    std::string name() const override { return "counting"; }
    double tensorDensity() const override { return 0.5; }
    double expectedOccupancy(std::int64_t n) const override
    {
        return 0.5 * static_cast<double>(n);
    }
    double probEmpty(std::int64_t n) const override
    {
        ++calls;
        return 1.0 / (1.0 + static_cast<double>(n));
    }
    std::int64_t maxOccupancy(std::int64_t n) const override { return n; }
    bool coordinateDependent() const override
    {
        return coordinate_dependent_;
    }

    mutable int calls = 0;

  private:
    bool coordinate_dependent_;
};

TEST(ProbEmptyMemo, HitsEqualTheClosedFormBitForBit)
{
    HypergeometricDensity m(1 << 20, 0.1);
    for (int pass = 0; pass < 2; ++pass) {  // misses, then hits
        for (std::int64_t v = 0; v <= 5000; v += 7) {
            EXPECT_TRUE(sameBits(probEmptyMemoized(m, v), m.probEmpty(v)))
                << "volume " << v << " pass " << pass;
        }
    }
}

TEST(ProbEmptyMemo, CollidingKeysKeepTheirOwnValues)
{
    HypergeometricDensity a(1 << 16, 0.3);
    HypergeometricDensity b(1 << 16, 0.05);
    // Three keys on one slot: two volumes of `a`, one of `b`.
    const std::size_t slot = probEmptyMemoSlot(a.instanceId(), 100);
    std::int64_t a2 = -1;
    std::int64_t bv = -1;
    for (std::int64_t v = 101; a2 < 0 || bv < 0; ++v) {
        if (a2 < 0 && probEmptyMemoSlot(a.instanceId(), v) == slot) {
            a2 = v;
        }
        if (bv < 0 && probEmptyMemoSlot(b.instanceId(), v) == slot) {
            bv = v;
        }
    }
    for (int round = 0; round < 3; ++round) {
        EXPECT_TRUE(sameBits(probEmptyMemoized(a, 100), a.probEmpty(100)));
        EXPECT_TRUE(sameBits(probEmptyMemoized(a, a2), a.probEmpty(a2)));
        EXPECT_TRUE(sameBits(probEmptyMemoized(b, bv), b.probEmpty(bv)));
        // The same volume under another model is another key.
        EXPECT_TRUE(sameBits(probEmptyMemoized(b, 100), b.probEmpty(100)));
    }
}

TEST(ProbEmptyMemo, CoordinateIndependentModelsAreServedFromTheMemo)
{
    CountingDensity model(false);
    const double first = probEmptyMemoized(model, 12345);
    const double second = probEmptyMemoized(model, 12345);
    EXPECT_TRUE(sameBits(first, second));
    EXPECT_EQ(model.calls, 1);
}

TEST(ProbEmptyMemo, CoordinateDependentModelsBypassTheMemo)
{
    CountingDensity model(true);
    probEmptyMemoized(model, 12345);
    probEmptyMemoized(model, 12345);
    EXPECT_EQ(model.calls, 2);

    // A real coordinate-dependent model answers as it would unmemoized.
    BandedDensity band(64, 64, 2, 0.5);
    for (std::int64_t v : {1, 4, 16, 64}) {
        EXPECT_TRUE(sameBits(probEmptyMemoized(band, v), band.probEmpty(v)));
    }
}

TEST(ProbEmptyMemo, AgreesAcrossPoolThreads)
{
    HypergeometricDensity m(1 << 18, 0.2);
    constexpr std::size_t kQueries = 4000;
    std::vector<double> expected(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
        expected[i] = m.probEmpty(static_cast<std::int64_t>(i % 900));
    }
    parallel::ThreadPool pool(3);
    for (int round = 0; round < 3; ++round) {
        std::vector<double> got(kQueries);
        pool.parallelFor(4, kQueries, [&](std::size_t i) {
            got[i] = probEmptyMemoized(m, static_cast<std::int64_t>(i % 900));
        });
        for (std::size_t i = 0; i < kQueries; ++i) {
            ASSERT_TRUE(sameBits(got[i], expected[i])) << "query " << i;
        }
    }
}

} // namespace
} // namespace sparseloop
