/**
 * @file
 * Statistical density models (Sec. 5.3.2, Table 4).
 *
 * A density model characterizes where the nonzeros of a workload tensor
 * sit, and answers the questions the sparse modeling step needs about
 * tiles (fibers) of a given shape:
 *   - expected occupancy (how many nonzeros a tile holds on average),
 *   - probability that the tile is entirely empty (drives intersection
 *     based gating/skipping savings),
 *   - worst-case occupancy (drives capacity/mapping validity), and
 *   - the full occupancy distribution (Fig. 9 style analysis).
 *
 * Models are either coordinate-independent (uniform, fixed-structured)
 * or coordinate-dependent (banded, actual data); the shaped interface
 * lets coordinate-dependent models average over tile positions.
 */

#ifndef SPARSELOOP_DENSITY_DENSITY_MODEL_HH
#define SPARSELOOP_DENSITY_DENSITY_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "tensor/point.hh"

namespace sparseloop {

/** Discrete distribution over tile occupancies. */
struct OccupancyDistribution
{
    /** occupancy -> probability; omitted entries have probability 0. */
    std::map<std::int64_t, double> pmf;

    double probOf(std::int64_t occ) const
    {
        auto it = pmf.find(occ);
        return it == pmf.end() ? 0.0 : it->second;
    }
    double probEmpty() const { return probOf(0); }
    double mean() const;
    std::int64_t max() const;
    /** Sum of all probabilities (should be ~1). */
    double totalMass() const;
};

/**
 * Abstract statistical density model for one tensor.
 */
class DensityModel
{
  public:
    virtual ~DensityModel() = default;

    /** Human-readable model name. */
    virtual std::string name() const = 0;

    /** Overall tensor density (fraction of nonzeros). */
    virtual double tensorDensity() const = 0;

    /** Expected nonzero count in a tile of @p tile_elems elements. */
    virtual double expectedOccupancy(std::int64_t tile_elems) const = 0;

    /** Probability that a tile of @p tile_elems elements is all-zero. */
    virtual double probEmpty(std::int64_t tile_elems) const = 0;

    /** Worst-case nonzero count in a tile of @p tile_elems elements. */
    virtual std::int64_t maxOccupancy(std::int64_t tile_elems) const = 0;

    /**
     * Full occupancy distribution for a tile of @p tile_elems elements.
     * The default builds a two-point {0, E[occ | nonempty]} surrogate;
     * concrete models override with the exact law.
     */
    virtual OccupancyDistribution
    distribution(std::int64_t tile_elems) const;

    /**
     * Shaped variants for coordinate-dependent models; defaults defer
     * to the element-count interface using the tile volume.
     */
    virtual double expectedOccupancyShaped(const Shape &extents) const;
    virtual double probEmptyShaped(const Shape &extents) const;
    virtual std::int64_t maxOccupancyShaped(const Shape &extents) const;

    /**
     * Whether fiber density depends on fiber coordinates (Table 4).
     * A model that returns false answers every shaped query as the
     * element-count query on the tile volume (the defaults below),
     * which is what lets `probEmptyMemoized` key on the volume alone.
     */
    virtual bool coordinateDependent() const { return false; }

    /**
     * Stable in-process identity for evaluation caching: two models with
     * equal signatures must answer every query identically. Concrete
     * models override this with a hash of their defining parameters so
     * that separately-constructed but semantically identical models
     * share cache entries; the base default conservatively mixes in a
     * process-unique instance id (never an address, which allocators
     * recycle), so an un-overridden model is only equal to itself.
     */
    virtual std::uint64_t signature() const;

    /**
     * Process-unique id minted per constructed model, starting at 1.
     * Never reused (unlike an address, which allocators recycle), so
     * it can key per-model memos that outlive the model. A copy
     * carries its source's id together with its parameters, and no
     * model has mutators, so one id always names one set of answers.
     */
    std::uint64_t instanceId() const { return instance_id_; }

  private:
    std::uint64_t instance_id_ = nextInstanceId();

    static std::uint64_t nextInstanceId();
};

using DensityModelPtr = std::shared_ptr<const DensityModel>;

/**
 * `model.probEmpty(volume)` through a per-thread memo: a bounded,
 * direct-mapped table keyed by (`model.instanceId()`, @p volume).
 * A hit returns the double a fresh call would (probEmpty is a pure
 * function of the model and the volume); a miss computes it and
 * overwrites the slot. Coordinate-dependent models bypass the memo.
 * Each thread owns its table, so pool workers never contend.
 */
double probEmptyMemoized(const DensityModel &model, std::int64_t volume);

/** Slots in each thread's `probEmptyMemoized` table. */
constexpr std::size_t kProbEmptyMemoSlots = 1024;

/** The `probEmptyMemoized` slot of one key (for tests that need keys
 *  that collide). */
std::size_t probEmptyMemoSlot(std::uint64_t instance_id,
                              std::int64_t volume);

} // namespace sparseloop

#endif // SPARSELOOP_DENSITY_DENSITY_MODEL_HH
