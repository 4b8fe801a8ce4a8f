/**
 * @file
 * Shared behavior for density models.
 */

#include "density/density_model.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/mathutil.hh"

namespace sparseloop {

double
OccupancyDistribution::mean() const
{
    double m = 0.0;
    for (const auto &kv : pmf) {
        m += static_cast<double>(kv.first) * kv.second;
    }
    return m;
}

std::int64_t
OccupancyDistribution::max() const
{
    for (auto it = pmf.rbegin(); it != pmf.rend(); ++it) {
        if (it->second > 0.0) {
            return it->first;
        }
    }
    return 0;
}

double
OccupancyDistribution::totalMass() const
{
    double m = 0.0;
    for (const auto &kv : pmf) {
        m += kv.second;
    }
    return m;
}

OccupancyDistribution
DensityModel::distribution(std::int64_t tile_elems) const
{
    OccupancyDistribution dist;
    double p_empty = probEmpty(tile_elems);
    double mean = expectedOccupancy(tile_elems);
    if (p_empty >= 1.0 || mean <= 0.0) {
        dist.pmf[0] = 1.0;
        return dist;
    }
    // Two-point surrogate: empty with p_empty, otherwise the expected
    // occupancy conditioned on being non-empty.
    double cond_mean = mean / (1.0 - p_empty);
    auto occ = static_cast<std::int64_t>(std::llround(cond_mean));
    occ = std::max<std::int64_t>(1, std::min(occ, tile_elems));
    if (p_empty > 0.0) {
        dist.pmf[0] = p_empty;
    }
    dist.pmf[occ] += 1.0 - p_empty;
    return dist;
}

double
DensityModel::expectedOccupancyShaped(const Shape &extents) const
{
    return expectedOccupancy(volume(extents));
}

double
DensityModel::probEmptyShaped(const Shape &extents) const
{
    return probEmpty(volume(extents));
}

std::int64_t
DensityModel::maxOccupancyShaped(const Shape &extents) const
{
    return maxOccupancy(volume(extents));
}

namespace {

/** One `probEmptyMemoized` entry; instance id 0 marks an empty slot
 *  (ids start at 1). */
struct ProbEmptySlot
{
    std::uint64_t id;
    std::int64_t volume;
    double p_empty;
};

} // namespace

std::size_t
probEmptyMemoSlot(std::uint64_t instance_id, std::int64_t volume)
{
    std::uint64_t h = math::hashCombine(instance_id,
                                        static_cast<std::uint64_t>(volume));
    return static_cast<std::size_t>(h % kProbEmptyMemoSlots);
}

double
probEmptyMemoized(const DensityModel &model, std::int64_t volume)
{
    if (model.coordinateDependent()) {
        return model.probEmpty(volume);
    }
    // Allocated on a thread's first query and freed at its exit, so
    // threads that never model a sparse tensor carry no table.
    thread_local std::unique_ptr<ProbEmptySlot[]> table;
    if (!table) {
        table.reset(new ProbEmptySlot[kProbEmptyMemoSlots]());
    }
    const std::uint64_t id = model.instanceId();
    ProbEmptySlot &slot = table[probEmptyMemoSlot(id, volume)];
    if (slot.id != id || slot.volume != volume) {
        slot = {id, volume, model.probEmpty(volume)};
    }
    return slot.p_empty;
}

std::uint64_t
DensityModel::nextInstanceId()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
DensityModel::signature() const
{
    // Conservative default: models that don't describe their parameters
    // are only ever equal to themselves.
    std::uint64_t h = math::hashString(math::kHashSeed, name());
    h = math::hashDouble(h, tensorDensity());
    return math::hashCombine(h, instance_id_);
}

} // namespace sparseloop
