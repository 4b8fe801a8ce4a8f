/**
 * @file
 * Pluggable search strategies over the mapspace IR.
 *
 * A strategy is a candidate generator: the driver (`Mapper`)
 * repeatedly asks it to `propose` a batch of
 * candidates, evaluates the batch through `BatchEvaluator` (so
 * deduplication, dense-prefix grouping, and the worker pool apply
 * during search), feeds scalar objectives back via `observe`, and
 * keeps the (objective, index)-lexicographic best. The scalars come
 * from the driver's `ObjectiveSpec::scalarize` (mapper/objective.hh)
 * — strategies never see metric vectors, so they work unchanged under
 * every spec form (for the default EDP spec the feedback is
 * bit-identical to the historical scalar objective). Splitting
 * generation from evaluation is what makes the strategies
 * interchangeable and the parallelism strategy-agnostic: every
 * strategy is deterministic given its feedback, and the feedback is
 * bit-identical at any thread count.
 *
 * Shipped strategies (docs/search.md is the full guide):
 *  - `RandomSearch` — seeded sampling via the IR; bit-identical to the
 *    pre-IR mapper on unconstrained spaces (same seed -> candidate
 *    derivation), rejection-free under constraints.
 *  - `ExhaustiveSearch` — walks `MapSpace::mappingAt`; auto-selected
 *    by the driver when the pruned space fits the sample budget, which
 *    upgrades the search from sampled to provably optimal.
 *  - `HybridSearch` — random warmup, then greedy hill-climbing over
 *    `MapSpace::neighbors` with random restarts when a local optimum
 *    stalls.
 *  - `AnnealingSearch` — simulated annealing: independent Metropolis
 *    chains over `MapSpace::Point` moves with a shared geometric
 *    temperature schedule.
 *  - `GeneticSearch` — a population evolved by tournament selection,
 *    axis-wise `MapSpace::crossover`, and neighbor-move mutation; all
 *    offspring are in-space by construction.
 *  - `HierarchicalSearch` — coarse-then-refine for billion-point
 *    spaces: sweep the tiling x keep quotient first (one canonical
 *    representative per cell via `MapSpace::coarsePoints`), then
 *    refine the winners' fine axes by greedy neighborhood descent.
 *
 * Strategies may also be seeded with starting points re-encoded from a
 * `WarmStartPool` (mapper/warm_start.hh) via `warmStart`, which is how
 * DSE sweep drivers reuse elite mappings across neighboring design
 * points.
 */

#ifndef SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH
#define SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH

#include <memory>

#include "mapper/mapspace.hh"

namespace sparseloop {

/** Which search strategy a `Mapper` runs. */
enum class SearchStrategyKind
{
    /** Exhaustive when the pruned space fits the sample budget
     *  (exactness for free), random otherwise. */
    Auto,
    Random,
    Exhaustive,
    Hybrid,
    Annealing,
    Genetic,
    /** Coarse-then-refine over the tiling x keep quotient space. */
    Hierarchical,
};

/** `AnnealingSearch` knobs (docs/search.md has usage guidance). */
struct AnnealingOptions
{
    /**
     * Independent Metropolis chains advanced in lockstep; also the
     * evaluation-round size. More chains mean more exploration and
     * more parallel evaluation work per round, but fewer cooling
     * steps within a fixed budget.
     */
    int chains = 8;
    /**
     * Initial temperature on the relative-worsening scale: a move
     * that worsens the incumbent objective by `initial_temperature`
     * (as a fraction of its value) is accepted with probability 1/e
     * at the start of the schedule.
     */
    double initial_temperature = 0.25;
    /** Temperature the geometric schedule reaches as the sample
     *  budget runs out (used when `cooling == 0`). */
    double final_temperature = 1e-3;
    /**
     * Per-round geometric cooling factor in (0, 1]; 0 (the default)
     * derives it from the sample budget so the schedule spans
     * initial -> final temperature exactly.
     */
    double cooling = 0.0;
};

/** `GeneticSearch` knobs (docs/search.md has usage guidance). */
struct GeneticOptions
{
    /** Population size; generation 0 evaluates this many points
     *  (warm-start elites first, seeded samples after). */
    int population = 24;
    /** Members carried into the next generation unchanged and without
     *  re-evaluation; clamped to `population - 1`. */
    int elites = 4;
    /** Tournament size for parent selection (clamped to >= 1). */
    int tournament = 3;
    /** Probability that an offspring takes one uniformly drawn
     *  neighbor move after crossover. */
    double mutation_rate = 0.25;
};

/** `HierarchicalSearch` knobs (docs/search.md has usage guidance). */
struct HierarchicalOptions
{
    /**
     * Proposals spent on the coarse phase; 0 derives half the sample
     * budget. The coarse phase scores one representative mapping per
     * (tiling, keep-mask combination) quotient cell — default loop
     * order, first spatial candidate — sub-sampling both axes evenly
     * when the quotient exceeds the allowance.
     */
    std::int64_t coarse_budget = 0;
    /** Coarse winners refined concurrently by greedy neighborhood
     *  descent (clamped to >= 1). */
    int refine_width = 4;
    /** Keep-mask combinations scored per tiling in the coarse phase
     *  (strided evenly across the joint keep axis; clamped to >= 1). */
    int keeps_per_tiling = 8;
};

/** Per-strategy tuning handed through `makeSearchStrategy`. */
struct SearchTuning
{
    /** `HybridSearch` warmup/restart window; 0 = budget / 4. */
    std::int64_t hybrid_warmup = 0;
    AnnealingOptions annealing;
    GeneticOptions genetic;
    HierarchicalOptions hierarchical;
};

/** One proposed candidate: a mapping plus its global proposal index
 *  (the deterministic tie-break for equal objectives). */
struct SearchCandidate
{
    std::int64_t index = 0;
    Mapping mapping;
};

/**
 * Candidate-generation interface. Not thread-safe: one driver owns and
 * drives a strategy sequentially; parallelism lives in the batched
 * evaluation of whatever the strategy proposes.
 */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    virtual const char *name() const = 0;

    /**
     * Propose up to @p max_count candidates. Indices are unique and
     * strictly increasing across the whole search. An empty batch
     * means the strategy is exhausted and the search stops early.
     */
    virtual std::vector<SearchCandidate> propose(int max_count) = 0;

    /**
     * `propose` into @p batch, replacing its contents: the same
     * candidates in the same order. Strategies that build candidates
     * from `MapSpace::Point`s override it to rebuild each entry's
     * mapping in place (`MapSpace::materializeInto`), so a driver that
     * keeps one batch vector across rounds allocates no candidate
     * storage in steady state. The default assigns `propose`'s result.
     */
    virtual void proposeInto(int max_count,
                             std::vector<SearchCandidate> &batch);

    /**
     * Feedback for the batch returned by the previous `propose` call:
     * `objectives[i]` is the scalarized objective of `batch[i]` under
     * the driver's `ObjectiveSpec` (+infinity for invalid candidates
     * and for candidates a constrained spec rejects; lower is
     * better).
     */
    virtual void observe(const std::vector<SearchCandidate> &batch,
                         const std::vector<double> &objectives);

    /**
     * Seed the strategy with in-space starting points — typically
     * elite mappings from a `WarmStartPool` re-encoded into this
     * search's `MapSpace` — before the first `propose` call. Seeded
     * points are proposed (and therefore evaluated and counted
     * against the budget) like any other candidate. The default
     * ignores them; `RandomSearch` and `ExhaustiveSearch` gain
     * nothing from starting points, while `HybridSearch`,
     * `AnnealingSearch`, and `GeneticSearch` override this.
     */
    virtual void warmStart(const std::vector<MapSpace::Point> &points);
};

/** Seeded random sampling through the IR (never exhausts). */
class RandomSearch : public SearchStrategy
{
  public:
    RandomSearch(const MapSpace &space, std::uint64_t seed);

    const char *name() const override { return "random"; }
    std::vector<SearchCandidate> propose(int max_count) override;

  private:
    const MapSpace &space_;
    std::uint64_t seed_;
    std::int64_t next_ = 0;
};

/** Duplicate-free walk of an enumerable space. */
class ExhaustiveSearch : public SearchStrategy
{
  public:
    explicit ExhaustiveSearch(const MapSpace &space);

    const char *name() const override { return "exhaustive"; }
    std::vector<SearchCandidate> propose(int max_count) override;

  private:
    const MapSpace &space_;
    std::int64_t next_ = 0;
};

/** Random warmup, then greedy neighborhood refinement with random
 *  restarts on stall. */
class HybridSearch : public SearchStrategy
{
  public:
    /**
     * @param warmup random candidates drawn before refinement starts
     *        (also the restart batch size when refinement stalls).
     */
    HybridSearch(const MapSpace &space, std::uint64_t seed,
                 std::int64_t warmup);

    const char *name() const override { return "hybrid"; }
    std::vector<SearchCandidate> propose(int max_count) override;
    void observe(const std::vector<SearchCandidate> &batch,
                 const std::vector<double> &objectives) override;
    /** Seeded points are proposed ahead of the random warmup; an
     *  improving one becomes the first refinement incumbent. */
    void warmStart(const std::vector<MapSpace::Point> &points) override;

  private:
    std::vector<SearchCandidate> proposeRandom(int count);

    const MapSpace &space_;
    std::uint64_t seed_;
    std::int64_t warmup_;          ///< random window size (warmup/restart)
    std::int64_t random_left_ = 0; ///< random proposals left in window
    std::int64_t next_ = 0;        ///< next proposal index
    std::int64_t next_seed_ = 0;   ///< next random sample offset
    /**
     * Refinement-round state. A round fixes the incumbent's full
     * neighborhood up front and streams it out across propose() calls
     * (`pending_` not yet proposed, `outstanding_` proposed but not
     * yet observed); the improve-or-restart decision falls only at the
     * round boundary. This keeps the proposal sequence — and hence the
     * search result — independent of the driver's batch size.
     */
    std::vector<MapSpace::Point> pending_;
    std::int64_t outstanding_ = 0;
    bool round_improved_ = false;
    bool refining_ = false;        ///< last batch was a neighborhood
    std::optional<MapSpace::Point> incumbent_;
    double incumbent_obj_ = 0.0;
    /** Warm-start points not yet proposed (served before warmup). */
    std::vector<MapSpace::Point> warm_pending_;
};

/**
 * Shared machinery for strategies that evaluate fixed-size rounds of
 * `MapSpace::Point`s in lockstep (annealing rounds, genetic
 * generations). A round's points are fixed up front by `buildRound`
 * and streamed out across `propose` calls; `roundComplete` fires once
 * every point of the round has been observed, so all state updates
 * fall at round boundaries and the proposal sequence — hence the
 * search result — is independent of the driver's batch size. On a
 * mapspace whose tiling axes exceed the materialization limits
 * (`!MapSpace::pointEncodable()`), the strategy degenerates to seeded
 * random sampling, mirroring `HybridSearch`.
 */
class RoundStrategy : public SearchStrategy
{
  public:
    RoundStrategy(const MapSpace &space, std::uint64_t seed);

    std::vector<SearchCandidate> propose(int max_count) override;
    void proposeInto(int max_count,
                     std::vector<SearchCandidate> &batch) override;
    void observe(const std::vector<SearchCandidate> &batch,
                 const std::vector<double> &objectives) override;

  protected:
    /** Fill @p out (passed empty, with the previous round's capacity)
     *  with the next round's points (must not be empty). */
    virtual void buildRound(std::vector<MapSpace::Point> &out) = 0;
    /** One objective per round point, +infinity for invalid ones. */
    virtual void roundComplete(const std::vector<MapSpace::Point> &points,
                               const std::vector<double> &objectives) = 0;

    /** Draw the next seeded random point (the historical seed + index
     *  derivation shared with `RandomSearch`). */
    MapSpace::Point nextSamplePoint();

    const MapSpace &space_;
    std::uint64_t seed_;
    bool degenerate_ = false;  ///< tiling axes not materialized

  private:
    std::vector<MapSpace::Point> round_points_;
    std::size_t round_proposed_ = 0;
    std::vector<double> round_objectives_;
    std::size_t round_observed_ = 0;
    std::int64_t next_ = 0;       ///< next proposal index
    std::int64_t next_seed_ = 0;  ///< next random sample offset
};

/**
 * Simulated annealing over `MapSpace::Point` coordinates:
 * `AnnealingOptions::chains` independent Metropolis chains advance in
 * lockstep, one uniformly drawn neighbor move per chain per round,
 * under a shared geometric temperature schedule on the
 * relative-worsening scale (see `AnnealingOptions`). An improving
 * move is always accepted; a worsening one with probability
 * `exp(-relative_worsening / temperature)`, so early rounds explore
 * across objective barriers and late rounds converge like greedy
 * refinement. Deterministic per (seed, options, budget) and — like
 * every strategy — bit-identical at any thread count and driver batch
 * size.
 */
class AnnealingSearch : public RoundStrategy
{
  public:
    /**
     * @param budget the driver's sample budget; derives the cooling
     *        factor when `options.cooling == 0`.
     */
    AnnealingSearch(const MapSpace &space, std::uint64_t seed,
                    std::int64_t budget, AnnealingOptions options = {});

    const char *name() const override { return "annealing"; }
    /** Seeded points become the initial chain states (first
     *  `chains` points; the rest of the chains start from seeded
     *  random samples). */
    void warmStart(const std::vector<MapSpace::Point> &points) override;

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override;
    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override;

  private:
    /** One Metropolis chain: its incumbent point and a private RNG
     *  for move selection and acceptance draws. */
    struct Chain
    {
        MapSpace::Point point;
        double objective = 0.0;
        std::mt19937_64 rng;
    };

    AnnealingOptions options_;
    double temperature_;
    double cooling_;
    std::vector<Chain> chains_;
    std::vector<MapSpace::Point> warm_points_;
    bool initialized_ = false;  ///< round 0 (chain seeding) observed
};

/**
 * Genetic search over `MapSpace::Point` coordinates: a population
 * evolved by (objective, age)-ranked tournament selection, axis-wise
 * `MapSpace::crossover`, and neighbor-move mutation. Every offspring
 * is a valid in-space point by construction — crossover recombines
 * per-axis coordinates of the constraint-pruned space and
 * `MapSpace::reconcile` repairs cross-axis consistency, so no
 * candidate is ever generated and then rejected. Elites carry across
 * generations without re-evaluation, so the whole budget is spent on
 * new candidates. Deterministic per (seed, options) and bit-identical
 * at any thread count and driver batch size.
 */
class GeneticSearch : public RoundStrategy
{
  public:
    GeneticSearch(const MapSpace &space, std::uint64_t seed,
                  GeneticOptions options = {});

    const char *name() const override { return "genetic"; }
    /** Seeded points join generation 0 (first `population` points;
     *  seeded random samples fill the remainder). */
    void warmStart(const std::vector<MapSpace::Point> &points) override;

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override;
    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override;

  private:
    /** One evaluated population member; `birth` (the member's creation
     *  rank) breaks objective ties deterministically, older first. */
    struct Member
    {
        MapSpace::Point point;
        double objective;
        std::int64_t birth;
    };

    /** Indices of @p members ranked best-first by (objective, birth). */
    static std::vector<std::size_t>
    ranked(const std::vector<Member> &members);
    /** Tournament-select one member index (best of `tournament`
     *  uniform draws). */
    std::size_t selectParent();

    GeneticOptions options_;
    std::mt19937_64 rng_;
    std::vector<Member> parents_;   ///< last completed generation
    std::vector<Member> carried_;   ///< elites carried into this round
    std::vector<std::int64_t> round_births_;
    std::vector<MapSpace::Point> warm_points_;
    std::int64_t next_birth_ = 0;
};

/**
 * Coarse-then-refine search for spaces whose fine axes (loop orders,
 * spatial picks) drown the budget: phase one sweeps the coarse
 * quotient — tiling shapes crossed with keep-mask combinations, each
 * represented by one canonical-order mapping from
 * `MapSpace::coarsePoints` — and phase two spends the remaining budget
 * on greedy neighborhood descent from the best
 * `HierarchicalOptions::refine_width` coarse cells, sharpening their
 * loop orders, spatial picks, and tilings concurrently. A stalled
 * incumbent (no improving neighbor in a full round) is retired; when
 * every incumbent has stalled the remaining budget falls back to
 * seeded random sampling. All decisions fall at round boundaries, so
 * results are bit-identical across thread counts and driver batch
 * sizes, like every other strategy.
 */
class HierarchicalSearch : public RoundStrategy
{
  public:
    /**
     * @param budget the driver's sample budget; sizes the coarse
     *        phase when `options.coarse_budget == 0`.
     */
    HierarchicalSearch(const MapSpace &space, std::uint64_t seed,
                       std::int64_t budget,
                       HierarchicalOptions options = {});

    const char *name() const override { return "hierarchical"; }
    /** Seeded points are scored ahead of the coarse sweep and compete
     *  for the refinement slots like any coarse cell. */
    void warmStart(const std::vector<MapSpace::Point> &points) override;

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override;
    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override;

  private:
    /** A scored coarse cell / refinement incumbent. */
    struct Scored
    {
        MapSpace::Point point;
        double objective = 0.0;
        std::int64_t order = 0;  ///< scoring rank (deterministic ties)
    };

    HierarchicalOptions options_;
    /** Coarse representatives not yet proposed (warm starts first). */
    std::vector<MapSpace::Point> coarse_pending_;
    std::size_t coarse_next_ = 0;
    /** Everything scored during the coarse phase. */
    std::vector<Scored> coarse_scored_;
    bool coarse_done_ = false;
    /** Active refinement incumbents (at most `refine_width`). */
    std::vector<Scored> incumbents_;
    /** Per-incumbent [begin, end) slices of the current refinement
     *  round's point list. */
    std::vector<std::pair<std::size_t, std::size_t>> refine_slices_;
    std::int64_t next_order_ = 0;
};

/**
 * Build the strategy for @p kind. `Auto` resolves to exhaustive when
 * `space.size().enumerable` fits within @p budget, else random.
 * @p budget also sizes `HybridSearch`'s default warmup window and
 * `AnnealingSearch`'s default cooling schedule (via @p tuning).
 */
std::unique_ptr<SearchStrategy>
makeSearchStrategy(SearchStrategyKind kind, const MapSpace &space,
                   std::uint64_t seed, std::int64_t budget,
                   const SearchTuning &tuning = {});

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH
