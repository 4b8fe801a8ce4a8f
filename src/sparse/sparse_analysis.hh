/**
 * @file
 * Step two of Sparseloop's modeling pipeline (Sec. 5.3): sparse
 * modeling. Filters the dense traffic produced by dataflow modeling to
 * reflect the savings and overheads of the specified SAFs, producing
 * sparse traffic broken down into fine-grained action types
 * (actual / gated / skipped, data vs. metadata).
 *
 * Key mechanisms:
 *  - Leader-tile inference (Fig. 10): for a gating/skipping SAF at
 *    level l on follower F, the leader tile is the leader's footprint
 *    over the follower datum's reuse region (the maximal innermost run
 *    of F-irrelevant loops below the delivery boundary, plus the
 *    boundary tile itself). P(eliminate) = P(leader tile empty) from
 *    the leader's statistical density model.
 *  - Multi-leader SAFs (Z <- A & B): eliminate when any leader tile is
 *    empty: P = 1 - prod (1 - P_empty(leader_i)).
 *  - Propagation (Sec. 5.3.4): eliminations at an outer level scale
 *    all inner traffic of the follower and the compute multiplicatively.
 *  - Format analyzer (Sec. 5.3.3): compressed tensors move only
 *    nonzeros plus metadata; format overhead of skipped transfers is
 *    itself skipped (Sec. 5.3.5 post-processing).
 *  - Compute actions: effectual computes always execute; ineffectual
 *    computes not eliminated by storage SAFs are classified by the
 *    compute SAF (gate/skip) or execute as actual operations.
 */

#ifndef SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH
#define SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH

#include <vector>

#include "dataflow/dense_traffic.hh"
#include "sparse/saf.hh"

namespace sparseloop {

/** Fine-grained breakdown of a dense action count (Sec. 5.3.4). */
struct ActionBreakdown
{
    double actual = 0.0;
    double gated = 0.0;
    double skipped = 0.0;

    double total() const { return actual + gated + skipped; }
    /** Actions that consume a cycle (actual + gated). */
    double occupying() const { return actual + gated; }

    /** Exact (bitwise double) equality; feeds the cache's bit-identity
     *  contract — keep in sync with the field list above. */
    bool operator==(const ActionBreakdown &o) const
    {
        return actual == o.actual && gated == o.gated &&
               skipped == o.skipped;
    }
    bool operator!=(const ActionBreakdown &o) const
    {
        return !(*this == o);
    }
};

/** Sparse traffic of one tensor at one storage level. */
struct TensorLevelSparse
{
    ActionBreakdown reads;
    ActionBreakdown fills;
    ActionBreakdown updates;
    ActionBreakdown acc_reads;
    ActionBreakdown drains;

    /** Metadata accesses, in metadata words. */
    double meta_reads = 0.0;
    double meta_fills = 0.0;
    double meta_updates = 0.0;

    /** Expected compressed tile footprint (data words, per instance). */
    double tile_data_words = 0.0;
    /** Expected metadata footprint in data-word equivalents. */
    double tile_metadata_words = 0.0;
    /** Worst-case occupied words (data + metadata), for validity. */
    double tile_worst_words = 0.0;
    /** Dense tile footprint (elements). */
    double tile_dense_words = 0.0;

    double occupiedWords() const
    {
        return tile_data_words + tile_metadata_words;
    }

    /** Exact equality over every action/footprint field. */
    bool operator==(const TensorLevelSparse &o) const
    {
        return reads == o.reads && fills == o.fills &&
               updates == o.updates && acc_reads == o.acc_reads &&
               drains == o.drains && meta_reads == o.meta_reads &&
               meta_fills == o.meta_fills &&
               meta_updates == o.meta_updates &&
               tile_data_words == o.tile_data_words &&
               tile_metadata_words == o.tile_metadata_words &&
               tile_worst_words == o.tile_worst_words &&
               tile_dense_words == o.tile_dense_words;
    }
    bool operator!=(const TensorLevelSparse &o) const
    {
        return !(*this == o);
    }
};

/** Result of the sparse modeling step. */
struct SparseTraffic
{
    /** [level][tensor] traffic records (contiguous row-major grid). */
    FlatMatrix<TensorLevelSparse> levels;
    ActionBreakdown computes;
    /** Computes whose result is algebraically needed. */
    double effectual_computes = 0.0;
    std::vector<std::int64_t> instances;
    std::int64_t compute_instances = 1;

    const TensorLevelSparse &at(int level, int tensor) const
    {
        return levels[level][tensor];
    }

    /** Exact equality over every record (bit-identity contract). */
    bool operator==(const SparseTraffic &o) const
    {
        return computes == o.computes &&
               effectual_computes == o.effectual_computes &&
               instances == o.instances &&
               compute_instances == o.compute_instances &&
               levels == o.levels;
    }
    bool operator!=(const SparseTraffic &o) const { return !(*this == o); }
};

class SparseAnalysis
{
  public:
    SparseAnalysis(const Workload &workload, const Architecture &arch,
                   const Mapping &mapping, const SafSpec &safs);

    /** Filter dense traffic into sparse traffic. */
    SparseTraffic analyze(const DenseTraffic &dense) const;

    /**
     * Per-dimension tile sizes of the leader region for an
     * intersection SAF (Fig. 10 inference).
     */
    std::vector<std::int64_t>
    leaderRegionDimTiles(const IntersectionSaf &saf) const;

    /** Probability that the SAF eliminates one follower access. */
    double eliminationProbability(const IntersectionSaf &saf) const;

    /**
     * Fraction of computes that are effectual (all operands nonzero).
     *
     * With statistical models this is the product of operand
     * densities. When every sparse operand carries an actual-data
     * density model, the joint intersection is computed exactly from
     * the concrete tensors (enumerating the iteration space, or
     * sampling it when too large) — the mechanism behind the paper's
     * near-exact actual-data validation (Sec. 6.3.2), at the cost of
     * slower modeling.
     */
    double effectualFraction() const;

  private:
    const Workload &workload_;
    const Architecture &arch_;
    const Mapping &mapping_;
    const SafSpec &safs_;
    NestAnalysis nest_;

    /** Delivery boundary of follower traffic for a SAF at its level. */
    int safBoundary(const IntersectionSaf &saf) const;

    /** Per-dimension tile sizes, inline for up to 8 dimensions. */
    using DimTiles = SmallVector<std::int64_t, 8>;

    /**
     * eliminationProbability with a caller-owned dim-tile buffer, so
     * the hoisted per-SAF loop in analyze() allocates nothing.
     * Identical arithmetic, term for term, to the public method;
     * coordinate-independent leaders read probEmpty through
     * `probEmptyMemoized`, which returns the same double.
     */
    double eliminationProbabilityScratch(const IntersectionSaf &saf,
                                         DimTiles &dim_tiles) const;

    /** Density of tensor t (1 when dense). */
    double density(int t) const;
};

} // namespace sparseloop

#endif // SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH
