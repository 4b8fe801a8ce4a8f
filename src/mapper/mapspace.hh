/**
 * @file
 * Explicit mapspace IR (Sec. 5.1 "mapspace constraints").
 *
 * A mapping is a point in a structured space with four families of
 * axes, one value per axis picked independently:
 *
 *  - **Tiling** — per workload dimension, an ordered factorization of
 *    the dimension bound across the storage levels (a "split").
 *  - **Permutation** — per storage level, the order of the temporal
 *    loops over the dimensions tiled at that level.
 *  - **Spatial** — per storage level with fanout > 1, which tiled
 *    dimension (if any) becomes a parallel-for.
 *  - **Keep/bypass** — per storage level, which tensors are buffered.
 *
 * `MapSpace` materializes these axes explicitly, applying
 * `MapspaceConstraints` **by construction**: a constrained axis is
 * pruned before anything samples or enumerates it, so no candidate is
 * ever drawn and then rejected for violating a constraint. This is the
 * load-bearing difference from the pre-IR mapper, which fused
 * rejection sampling into the search loop and burned most of a
 * constrained search's budget on invalid draws.
 *
 * Construction is a pipeline of passes over the raw axes:
 *
 *  1. **Constraint pruning** (always on) — constrained axes are pruned
 *     before anything samples or enumerates them.
 *  2. **Symmetry reduction** (`prune_symmetry`) — per-level loop
 *     orders are deduplicated to canonical form: adjacent loops whose
 *     dimensions have identical tensor-relevance signatures commute
 *     without changing any traffic count, so only orders whose maximal
 *     adjacent same-class runs are ascending are enumerated.
 *  3. **Keep-dominance pruning** (`prune_dominated_keeps`) — keeping a
 *     tensor at a level is provably useless when no loop between it
 *     and the next-inner keeping level is relevant to the tensor (the
 *     kept tile is delivered once and never reused); such keep
 *     configurations are dominated on every metric and dropped.
 *  4. **Capacity-dominance pruning** (`prune_capacity_tilings`) —
 *     tilings whose minimum possible occupancy (tensors kept under
 *     every admissible mask) overflows some level's capacity can never
 *     evaluate valid and are dropped whole. Only provable against
 *     dense (uncompressed) footprints, so the `Mapper` disables it
 *     when format SAFs are in play.
 *
 * The passes reshape **enumeration only** (`mappingAt`, `size()`, the
 * per-pass `pruneStats()` report); `sampleMapping`, `Point`
 * coordinates, neighborhoods, and crossover stay on the raw axes so
 * stochastic strategies keep their historical RNG behavior.
 *
 * The IR reports its size (exactly when the space is small enough to
 * enumerate, as a product-form upper bound otherwise) and serves three
 * access patterns, one per search strategy:
 *
 *  - `sampleMapping(seed)` — the seeded random candidate derivation.
 *    For unconstrained spaces it consumes its RNG exactly like the
 *    pre-IR `Mapper`, so `RandomSearch` reproduces historical results
 *    bit-identically; under constraints it redistributes factors over
 *    the allowed levels instead of rejecting.
 *  - `mappingAt(index)` — exact indexed enumeration (duplicate-free)
 *    for `ExhaustiveSearch` when `size().enumerable >= 0`.
 *  - `materialize`/`encode`/`neighbors` over `MapSpace::Point` — a
 *    per-axis coordinate form for `HybridSearch`'s greedy
 *    neighborhood refinement.
 */

#ifndef SPARSELOOP_MAPPER_MAPSPACE_HH
#define SPARSELOOP_MAPPER_MAPSPACE_HH

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/small_vector.hh"
#include "mapping/mapping.hh"

namespace sparseloop {

/** Per-level search constraints. */
struct LevelConstraint
{
    /**
     * Required relative order of dimensions for the temporal loops at
     * this level (outer first); empty = any order. Dimensions absent
     * from the list may not appear at this level.
     */
    std::vector<int> loop_order;
    /**
     * Dimensions allowed to be spatial at this level; empty = no
     * restriction (any tiled dimension that fits the fanout).
     */
    std::vector<int> spatial_dims;
    /** Tensors kept at this level; empty = keep all. */
    std::vector<int> keep;
};

/** Mapspace constraints: one entry per storage level (or empty). */
struct MapspaceConstraints
{
    std::vector<LevelConstraint> levels;
};

/**
 * Validate a constraint set against a workload and architecture:
 * the level count must match (or be zero), and every dimension or
 * tensor index must be in range and listed at most once per axis.
 * Fatal (SL_FATAL) on the first violation, naming the level and the
 * offending entry.
 */
void validateConstraints(const Workload &workload,
                         const Architecture &arch,
                         const MapspaceConstraints &constraints);

/** Materialization and enumeration limits. */
struct MapSpaceOptions
{
    /** Max splits materialized per dimension; beyond this the tiling
     *  axis stays implicit (sampling works, indexing/encoding don't). */
    std::int64_t max_splits_per_dim = 1 << 16;
    /** Max tiling combinations for exact size accounting. */
    std::int64_t max_tilings = 1 << 16;
    /** Max total points for exact indexed enumeration. */
    std::int64_t max_enumerable_points = 1 << 22;
    /**
     * Enumerate keep/bypass masks as a search axis at levels below the
     * outermost (which always keeps everything so each tensor has a
     * backing store). On by default: the paper's co-design results
     * hinge on exploring which tensors each level buffers, and the
     * pruning passes below keep the blow-up searchable. Set to false
     * to reproduce the historical keep-all-only space.
     */
    bool explore_bypass = true;
    /**
     * Enumerate only canonical loop orders per level: adjacent loops
     * over dimensions with identical tensor-relevance signatures
     * commute without changing any traffic count, so one
     * representative per equivalence class suffices. Lossless.
     */
    bool prune_symmetry = true;
    /**
     * Drop keep configurations in which some tensor is kept at a
     * level with no reuse: no loop between that level and the
     * next-inner keeping level is relevant to the tensor, so the kept
     * tile is filled and read exactly once per delivery — bypassing is
     * never worse on any metric. Lossless up to metric ties.
     */
    bool prune_dominated_keeps = true;
    /**
     * Drop tilings whose minimum possible occupancy (summing tensors
     * kept under every admissible keep choice) overflows a level's
     * capacity: every point of such a tiling fails the engine's
     * capacity check. Only provable against dense footprints — the
     * Mapper turns this off when format SAFs could compress tiles.
     */
    bool prune_capacity_tilings = true;
};

/**
 * Per-pass pruned-point accounting of the construction pipeline,
 * surfaced through `MapperResult::prune_stats`. Counts are exact when
 * the tiling cross-product is enumerable (`exact`), even when the raw
 * point total exceeds the indexed-enumeration limit; on the
 * estimate path only `raw_points` is populated.
 */
struct MapSpacePruneStats
{
    /** Points of the constraint-pruned space before pipeline passes. */
    double raw_points = 0.0;
    /** Points removed by canonical-order symmetry reduction. */
    double pruned_symmetry = 0.0;
    /** Points removed by keep-dominance pruning. */
    double pruned_dominated_keeps = 0.0;
    /** Points removed with capacity-dominated tilings. */
    double pruned_capacity_tilings = 0.0;
    /** Whether the per-pass counts are exact. */
    bool exact = false;

    /** Points surviving every pass (the enumerated quotient). */
    double keptPoints() const
    {
        return raw_points - pruned_symmetry - pruned_dominated_keeps -
               pruned_capacity_tilings;
    }
};

/** Size report of a mapspace. */
struct MapSpaceSize
{
    /**
     * Point count. When `exact`, the precise number of enumerable
     * points; otherwise a product-form upper-bound estimate (treating
     * every level as if all its admissible dimensions were tiled
     * there).
     */
    double points = 0.0;
    bool exact = false;
    /** Exact point count when the space supports `mappingAt` indexed
     *  enumeration, else -1. */
    std::int64_t enumerable = -1;
};

/**
 * The constraint-pruned mapspace of one (workload, architecture) pair.
 * Immutable after construction; all accessors are const and
 * thread-safe. Keeps references to the workload and architecture,
 * which must outlive it.
 */
class MapSpace
{
  public:
    /**
     * Per-axis coordinates of one point, the currency of neighborhood
     * search. Produced by `encode`, consumed by `materialize` and
     * `neighbors`. Every axis lives in inline storage sized for up to
     * 8 dimensions and 8 levels (every workload and hierarchy in the
     * tree), so copying, moving or overwriting a point allocates
     * nothing; larger spaces spill to the heap transparently.
     */
    struct Point
    {
        /** Tiled dimensions of one level in loop order (outer first). */
        using Order = SmallVector<int, 8>;

        /** Per dimension: index into `splits(dim)`. */
        SmallVector<std::size_t, 8> tiling;
        /** Per level: tiled dimensions in loop order (outer first). */
        SmallVector<Order, 8> order;
        /** Per level: spatial dimension, or -1 for none. */
        SmallVector<int, 8> spatial;
        /** Per level: index into the keep-mask choices. */
        SmallVector<std::size_t, 8> keep;
    };

    MapSpace(const Workload &workload, const Architecture &arch,
             MapspaceConstraints constraints = {},
             MapSpaceOptions options = {});

    /** Workload dimension count (one tiling axis each). */
    int dimCount() const { return static_cast<int>(allowed_.size()); }
    /** Architecture storage-level count. */
    int levelCount() const
    {
        return static_cast<int>(level_cons_.size());
    }

    /**
     * True when some dimension with bound > 1 has no admissible level
     * (constraints exclude it everywhere): the space contains no
     * mapping at all.
     */
    bool empty() const { return empty_; }

    const MapSpaceSize &size() const { return size_; }

    /** Per-pass pruned-point report of the construction pipeline. */
    const MapSpacePruneStats &pruneStats() const { return prune_stats_; }

    /** Number of tiling combinations (cross-product of per-dimension
     *  split counts, saturating). The coarse axis of hierarchical
     *  search. */
    std::int64_t tilingCount() const;

    /**
     * Coarse representatives of one tiling combination: the default
     * (reconciled) loop order, the first spatial candidate per level,
     * and up to @p max_keeps keep-mask combinations strided evenly
     * across the joint keep axis — the quotient points a hierarchical
     * search scores before refining winners' fine coordinates.
     * Requires `pointEncodable()` and `0 <= tiling_index <
     * tilingCount()`.
     */
    std::vector<Point> coarsePoints(std::int64_t tiling_index,
                                    int max_keeps) const;

    /** Levels at which @p dim may carry a factor > 1 (ascending). */
    const std::vector<int> &allowedLevels(int dim) const
    {
        return allowed_[static_cast<std::size_t>(dim)];
    }

    /** Whether @p level admits loops over @p dim. */
    bool levelAllowsDim(int level, int dim) const;

    /** Number of per-level factorizations of @p dim 's bound. */
    std::int64_t splitCount(int dim) const
    {
        return split_count_[static_cast<std::size_t>(dim)];
    }

    /**
     * Materialized splits of @p dim: each entry is a per-level factor
     * vector (product = dimension bound, 1 at disallowed levels),
     * sorted lexicographically. Empty when `splitCount` exceeds
     * `MapSpaceOptions::max_splits_per_dim`.
     */
    const std::vector<std::vector<std::int64_t>> &splits(int dim) const
    {
        return splits_[static_cast<std::size_t>(dim)];
    }

    /** Keep-mask choices at @p level (empty mask = keep all). */
    const std::vector<std::vector<bool>> &keepChoices(int level) const
    {
        return keep_choices_[static_cast<std::size_t>(level)];
    }

    /**
     * Draw the candidate for one seed. The derivation is the pre-IR
     * mapper's (divisor peeling innermost-up, Fisher-Yates loop order,
     * uniform spatial pick) restricted to the pruned axes, so it never
     * violates a constraint; with no constraints it is RNG-step
     * identical to the historical sampler. Requires `!empty()`.
     */
    Mapping sampleMapping(std::uint64_t seed) const;

    /**
     * The @p index -th point of the exact enumeration (duplicate-free).
     * With the pruning passes off the enumeration covers every mapping
     * `sampleMapping` can produce; with them on it covers the quotient
     * space — every sampled mapping has an enumerated representative
     * with identical traffic on every metric. Requires
     * `size().enumerable >= 0` and `0 <= index < size().enumerable`.
     */
    Mapping mappingAt(std::int64_t index) const;

    /** Build the mapping at explicit per-axis coordinates. */
    Mapping materialize(const Point &point) const;

    /**
     * `materialize` into an existing mapping, reusing its per-level
     * loop and keep buffers: once @p out has held a mapping of this
     * space, rebuilding it allocates nothing. The result compares
     * equal to `materialize(point)`.
     */
    void materializeInto(const Point &point, Mapping &out) const;

    /**
     * Recover the coordinates of a mapping. Fails (nullopt) when the
     * mapping lies outside this space — unmaterialized tiling axis, a
     * dimension looped twice at one level, an unknown keep mask, or a
     * constraint violation.
     */
    std::optional<Point> encode(const Mapping &mapping) const;

    /**
     * Single-axis moves from @p point: adjacent tiling splits per
     * dimension (loop orders reconciled, spatial re-validated),
     * adjacent transpositions of each unconstrained level order,
     * alternative spatial picks, and alternative keep masks. Every
     * neighbor is a valid in-space point.
     */
    std::vector<Point> neighbors(const Point &point) const;

    /**
     * Repair a point whose tiling coordinates changed out from under
     * its other axes (a tiling move, a crossover): at every level the
     * loop order keeps the surviving tiled dimensions in their
     * existing relative order and appends newly tiled dimensions
     * innermost (constrained orders are rebuilt from the constraint),
     * and a spatial pick that is no longer a candidate falls back to
     * the first candidate (or none). Keep coordinates index per-level
     * choice tables, so they stay valid and pass through unchanged.
     * The result is always a valid in-space point.
     */
    Point reconcile(Point point) const;

    /**
     * The coordinate form of `sampleMapping(seed)`: the same seeded
     * candidate derivation, returned as a `Point`. Requires
     * `pointEncodable()`.
     */
    Point samplePoint(std::uint64_t seed) const;

    /**
     * Uniform axis-wise crossover of two in-space points: every
     * tiling, order, spatial, and keep coordinate of the child comes
     * from @p a or @p b with equal probability, after which the child
     * is `reconcile`d — so it is a valid in-space point by
     * construction, never a candidate that must be checked and
     * rejected. Consumes @p rng one draw per axis in a fixed order,
     * so a given generator state yields exactly one child.
     */
    Point crossover(const Point &a, const Point &b,
                    std::mt19937_64 &rng) const;

    /**
     * A uniformly drawn entry of `neighbors(point)`, or `nullopt` for
     * an isolated point. Consumes @p rng exactly one draw when the
     * neighborhood is non-empty (none otherwise). Only the drawn move
     * is built: the moves of each category are counted in the order
     * `neighbors` emits them, the index is drawn as
     * `uniform_int_distribution<size_t>(0, n - 1)` over that count,
     * and only a tiling move is `reconcile`d — so the result is the
     * entry `neighbors(point)[index]` at the same generator state.
     */
    std::optional<Point> randomNeighbor(const Point &point,
                                        std::mt19937_64 &rng) const;

    /**
     * `randomNeighbor` written into @p out (which must not alias
     * @p point), reusing its storage: returns false, leaving @p out
     * unspecified, for an isolated point. The same draw and the same
     * neighbor as `randomNeighbor`.
     */
    bool randomNeighborInto(const Point &point, std::mt19937_64 &rng,
                            Point &out) const;

    /** Post-hoc constraint check (for tests and rejection baselines). */
    bool satisfies(const Mapping &mapping) const;

    /**
     * Whether every tiling axis is materialized, i.e. `encode` can
     * succeed and neighborhood refinement is available. False when
     * some dimension's split count exceeds
     * `MapSpaceOptions::max_splits_per_dim`.
     */
    bool pointEncodable() const;

    /** The constraints this space was pruned with (as passed in). */
    const MapspaceConstraints &constraints() const
    {
        return constraints_;
    }
    /** The workload whose mappings this space contains. */
    const Workload &workload() const { return workload_; }
    /** The architecture the mappings target. */
    const Architecture &arch() const { return arch_; }
    /** The materialization/enumeration limits in effect. */
    const MapSpaceOptions &options() const { return options_; }

  private:
    /**
     * Per-level factors of one tiling as one flat levels x dims
     * matrix: row l holds level l's factor of every dimension. The
     * inline buffer covers every hierarchy in the tree (up to 64
     * cells), so a tiling costs no heap allocation.
     */
    class FactorGrid
    {
      public:
        FactorGrid(int levels, int dims)
            : dims_(static_cast<std::size_t>(dims)),
              cells_(static_cast<std::size_t>(levels) * dims_, 1)
        {}
        /** Level @p l's factors, indexed by dimension. */
        const std::int64_t *row(int l) const
        {
            return cells_.data() + static_cast<std::size_t>(l) * dims_;
        }
        std::int64_t &at(int l, int d)
        {
            return cells_[static_cast<std::size_t>(l) * dims_ +
                          static_cast<std::size_t>(d)];
        }

      private:
        std::size_t dims_;
        SmallVector<std::int64_t, 64> cells_;
    };

    /** Spatial candidates of one level as returned inline (a level
     *  has at most `dimCount()` of them). */
    using Candidates = SmallVector<int, 8>;

    /** Whether dimension @p d, with factor @p f at @p level, may be
     *  that level's spatial loop. */
    bool spatialCandidate(int level, int d, std::int64_t f) const;

    /** Spatial candidates at @p level given per-dim factors there,
     *  in ascending dimension order. */
    Candidates spatialCandidates(int level,
                                 const std::int64_t *factors) const;

    /** Whether constraints fix the loop order at @p level. */
    bool orderConstrained(int level) const;

    /** Per-level factors of one tiling coordinate vector (one split
     *  index per dimension). */
    FactorGrid tilingFactors(const std::size_t *tiling) const;

    /** `reconcile` in place. */
    void reconcileInPlace(Point &point) const;

    /** Bitmask of dimensions tiled (factor > 1) at one level. */
    std::uint64_t tiledMask(const std::int64_t *level_factors) const;

    /** Canonical loop orders of the dimension set @p mask (built
     *  during construction; every mask reachable by enumeration is
     *  prebuilt, so lookups are const and thread-safe). */
    const std::vector<std::vector<int>> &
    canonicalOrders(std::uint64_t mask) const;

    /** Build and memoize the canonical orders of @p mask
     *  (construction-time only). */
    void ensureCanonical(std::uint64_t mask);

    /** Whether enumeration at @p level uses the canonical-order list
     *  for the tiled set @p mask (symmetry pass on, order free, and
     *  the set small enough to materialize). */
    bool canonicalAt(int level, std::uint64_t mask) const;

    /** Per-tensor bitmask of levels carrying a factor-> 1 loop over a
     *  dimension relevant to the tensor, for one tiling. */
    SmallVector<std::uint64_t, 8>
    relevantLevelMasks(const FactorGrid &factors) const;

    /**
     * Admissible free-level keep combinations for tensor @p t
     * (bit i = tensor kept at `keep_free_levels_[i]`), dominated
     * combinations removed when `prune_dominated_keeps` is on.
     * @p relevant_mask is the tensor's entry of relevantLevelMasks.
     */
    SmallVector<std::uint32_t, 16>
    keepCombos(int t, std::uint64_t relevant_mask) const;

    /** Whether every point of this tiling overflows some capacity. */
    bool capacityPruned(const FactorGrid &factors) const;

    /** Per-pass point counts of one tiling combination. */
    struct BlockCounts
    {
        double raw = 0.0;       ///< before pipeline passes
        double symmetry = 0.0;  ///< after canonical-order reduction
        double pruned = 0.0;    ///< after keep-dominance pruning
        std::int64_t block = 0; ///< enumerated size (saturating)
    };
    BlockCounts blockCounts(const FactorGrid &factors) const;

    const Workload &workload_;
    const Architecture &arch_;
    MapspaceConstraints constraints_;
    MapSpaceOptions options_;

    /** Normalized per-level constraints (always levelCount entries). */
    std::vector<LevelConstraint> level_cons_;
    /** Per dim: admissible levels, ascending. */
    std::vector<std::vector<int>> allowed_;
    /** Per dim: number of splits (saturating). */
    std::vector<std::int64_t> split_count_;
    /** Per dim: materialized splits (may be empty when too many). */
    std::vector<std::vector<std::vector<std::int64_t>>> splits_;
    /** Per level: keep-mask choices. */
    std::vector<std::vector<std::vector<bool>>> keep_choices_;
    /** Exclusive prefix sums of per-tiling block sizes (enumeration
     *  support); empty when the space is not enumerable. */
    std::vector<std::int64_t> tiling_prefix_;
    MapSpaceSize size_;
    bool empty_ = false;

    /** Per dim: tensor-relevance class id (symmetry reduction). */
    std::vector<int> dim_class_;
    /** Levels whose keep axis is open (more than one mask choice),
     *  ascending. */
    std::vector<int> keep_free_levels_;
    /** Canonical loop orders per tiled-dimension bitmask, prebuilt
     *  during the construction size loop. */
    std::unordered_map<std::uint64_t, std::vector<std::vector<int>>>
        canon_;
    MapSpacePruneStats prune_stats_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_MAPSPACE_HH
