/**
 * @file
 * Mapping specification (Sec. 5.1): an exact schedule expressed as a
 * loop nest. Each storage level owns a subnest; iterating a level's
 * temporal loops selects consecutive sub-tiles delivered to the
 * next-inner level; spatial (parallel-for) loops distribute sub-tiles
 * across the inner level's instances. The innermost subnest drives
 * operand delivery to the compute units.
 */

#ifndef SPARSELOOP_MAPPING_MAPPING_HH
#define SPARSELOOP_MAPPING_MAPPING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/architecture.hh"
#include "workload/workload.hh"

namespace sparseloop {

/** One loop of the nest. */
struct Loop
{
    int dim = 0;              ///< iteration-space dimension index
    std::int64_t bound = 1;   ///< trip count of this loop
    bool spatial = false;     ///< parallel-for?
};

bool operator==(const Loop &a, const Loop &b);
inline bool operator!=(const Loop &a, const Loop &b) { return !(a == b); }

/** The subnest owned by one storage level, outermost loop first. */
struct LevelNest
{
    std::vector<Loop> loops;
    /**
     * keep[t]: tensor t is buffered at this level. Bypassed tensors
     * flow through without occupying capacity (their traffic is served
     * by the nearest outer keeping level). Empty means keep all.
     */
    std::vector<bool> keep;

    bool keeps(int t) const
    {
        return keep.empty() || keep[static_cast<std::size_t>(t)];
    }
};

bool operator==(const LevelNest &a, const LevelNest &b);
inline bool operator!=(const LevelNest &a, const LevelNest &b)
{
    return !(a == b);
}

/**
 * A complete mapping: one subnest per storage level (same order as the
 * architecture: outermost first).
 */
class Mapping
{
  public:
    Mapping() = default;
    explicit Mapping(std::vector<LevelNest> levels)
        : levels_(std::move(levels))
    {}

    int levelCount() const { return static_cast<int>(levels_.size()); }
    const LevelNest &level(int i) const { return levels_[i]; }
    LevelNest &level(int i) { return levels_[i]; }
    const std::vector<LevelNest> &levels() const { return levels_; }

    /** Set the level count; surviving levels keep their contents and
     *  buffers, new ones start empty. */
    void resizeLevels(int count)
    {
        levels_.resize(static_cast<std::size_t>(count));
    }

    /**
     * Validate against a workload and architecture:
     *  - per-dimension loop bounds must multiply to the dim bound,
     *  - per-level spatial bounds must fit the level's fanout.
     * Fatal on violation.
     */
    void validate(const Workload &workload,
                  const Architecture &arch) const;

    /**
     * Residual tile size of each dimension at and below level @p lvl:
     * the product of that dimension's loop bounds in subnests
     * lvl..innermost. Index with dimension id.
     */
    std::vector<std::int64_t>
    dimTilesAtLevel(const Workload &workload, int lvl) const;

    /** Product of spatial loop bounds at levels strictly above lvl. */
    std::int64_t instancesAtLevel(int lvl) const;

    /** Product of all spatial loop bounds (compute instances). */
    std::int64_t computeInstances() const;

    /** Human-readable multi-line description of the nest. */
    std::string toString(const Workload &workload) const;

    /**
     * Evaluation-cache identity: hashes the full loop-nest structure
     * (per-level loops with dimension, bound, and spatial flag) and the
     * keep/bypass masks. Two mappings with equal signatures drive the
     * dataflow step identically.
     */
    std::uint64_t signature() const;

  private:
    std::vector<LevelNest> levels_;
};

/**
 * Structural equality: same levels, loops (dim, bound, spatial flag),
 * and keep masks. Note an empty keep mask (keep-all) compares unequal
 * to an explicit all-true mask even though both behave identically —
 * the same convention `signature()` uses.
 */
bool operator==(const Mapping &a, const Mapping &b);
inline bool operator!=(const Mapping &a, const Mapping &b)
{
    return !(a == b);
}

/**
 * Small helper to assemble mappings by name:
 *   MappingBuilder b(workload, arch);
 *   b.temporal(0, "M", 4).spatial(0, "N", 8).temporal(1, "K", 16);
 *   Mapping m = b.build();
 * Unmentioned dimension iterations are appended as outermost temporal
 * loops at level 0 by buildComplete().
 */
class MappingBuilder
{
  public:
    MappingBuilder(const Workload &workload, const Architecture &arch);

    MappingBuilder &temporal(int level, const std::string &dim,
                             std::int64_t bound);
    MappingBuilder &spatial(int level, const std::string &dim,
                            std::int64_t bound);
    /** Restrict the tensors kept at a level (by tensor names). */
    MappingBuilder &keepOnly(int level,
                             const std::vector<std::string> &tensors);

    /** Build exactly what was specified (validates). */
    Mapping build() const;

    /**
     * Build, appending any residual dimension factors as outermost
     * temporal loops at level 0 so the mapping always covers the whole
     * iteration space.
     */
    Mapping buildComplete() const;

  private:
    const Workload &workload_;
    const Architecture &arch_;
    std::vector<LevelNest> levels_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MAPPING_MAPPING_HH
