/**
 * @file
 * Batched engine evaluation for DSE sweeps.
 *
 * A design-space sweep is a pile of independent evaluation points, many
 * of which repeat work: duplicate points (the same design reached from
 * different sweep axes) and shared Step-1 dense prefixes (many SAF
 * specifications over one tile shape). `BatchEvaluator` exploits both:
 * it deduplicates points by `EvalKey`, groups the survivors by
 * `DenseKey` so each dense dataflow analysis runs once (both by
 * sorting flat vectors on hashes computed once per point), then runs
 * the groups in one chunk-scheduled wave: each group task fetches or
 * computes its Step-1 dense traffic, and a one-point group then runs
 * the sparse/micro-architecture steps in the same task. The points of
 * larger groups run those steps in a second wave, one task per point;
 * a batch of one-point groups (every mapper batch, which carries a
 * single SAF spec) never starts it.
 *
 * A wave reaches the persistent worker pool (common/thread_pool.hh)
 * only when its work pays for the wake-up: items run on the calling
 * thread one at a time, timed, and after each one the rest are handed
 * to the pool if the mean time so far times their count exceeds a few
 * pool round trips. A mapper's annealing round of 8 cheap candidates
 * therefore usually stays on the caller, while an actual-data batch
 * fans out after its first expensive item, wherever that item sorts.
 * `BatchStats` counts what reached the pool.
 *
 * A one-point group whose dense traffic is not cached takes the cold
 * `Engine::evaluate` path, which moves the dense traffic into the
 * result instead of copying it; the cache's fresh dense entry is then
 * an aliasing pointer to that result's own `dense` member instead of
 * a second copy of the traffic (the cache copies the traffic out only
 * if the result level drops that result). Tasks write only their own
 * slots, and cache insertions are buffered and merged into the
 * `EvalCache` shards in bulk after the waves. All lookups and
 * computations go through a shared `EvalCache`, so repeated batches —
 * and any mapper sharing the cache — keep hitting.
 *
 * `evaluateShared` is the core: it hands back shared, immutable
 * results (the objects the cache holds), so a search driver reads
 * each candidate's metrics without copying it; `Mapper` copies only
 * its final incumbent. `evaluateBatch` and `evaluateMappings` copy
 * the results out for callers that want values.
 *
 * Results are bit-identical to calling `Engine::evaluate` on every
 * point sequentially, whether a wave ran inline or on the pool:
 * deduplicated points receive the same `EvalResult` object (or copies
 * of it), and steps 2-3 always run on the exact Step-1
 * output they would have computed locally. (As everywhere in the
 * cache subsystem, identity is judged by `EvalKey`, so the guarantee
 * holds up to 64-bit signature collisions — ~2^-64 per pair of
 * distinct designs.)
 *
 * Quickstart:
 * @code
 *   BatchEvaluator evaluator(Engine(arch));
 *   std::vector<EvalPoint> points;
 *   for (const SafSpec &safs : safSweep) {
 *       points.push_back({&workload, &mapping, &safs});
 *   }
 *   std::vector<EvalResult> results = evaluator.evaluateBatch(points);
 *   double hit_rate = evaluator.cache().stats().denseHitRate();
 * @endcode
 */

#ifndef SPARSELOOP_MODEL_BATCH_EVALUATOR_HH
#define SPARSELOOP_MODEL_BATCH_EVALUATOR_HH

#include "model/eval_cache.hh"

namespace sparseloop {

/**
 * One evaluation point of a batch. The pointed-to objects must stay
 * alive until `evaluateBatch` returns; the evaluator never copies them.
 */
struct EvalPoint
{
    const Workload *workload = nullptr;
    const Mapping *mapping = nullptr;
    const SafSpec *safs = nullptr;
};

/** Worker-pool and cache-construction knobs. */
struct BatchEvaluatorOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_threads = 0;
    /** Sizing for the internally-created cache (ignored when one is
     *  injected via the constructor). */
    EvalCacheOptions cache;
};

/** Work-sharing accounting of one evaluateBatch call. */
struct BatchStats
{
    std::int64_t points = 0;        ///< points submitted
    std::int64_t unique_points = 0; ///< distinct EvalKeys in the batch
    /** Distinct Step-1 prefixes among points the result cache did not
     *  already hold (0 for a batch of pure repeats). */
    std::int64_t dense_groups = 0;
    /** Dense groups handed to the worker pool instead of run on the
     *  calling thread (0 when the batch was too cheap to fan out).
     *  The pool still runs them inline when another submitter holds
     *  it (see `parallel::parallelFor`). */
    std::int64_t pooled_groups = 0;
    /** Second-wave jobs (points of multi-point dense groups) handed
     *  to the worker pool. */
    std::int64_t pooled_jobs = 0;
};

/**
 * Cached, deduplicated, multi-threaded evaluation of point batches.
 * Thread-safe: concurrent calls on one instance share the cache.
 */
class BatchEvaluator
{
  public:
    /**
     * @param engine evaluation engine (owns the architecture).
     * @param cache shared cache; null creates a private one sized by
     *        @p options. Inject a cache to share hits with a `Mapper`
     *        (via `MapperOptions::cache`) or other evaluators; keys
     *        cover the engine configuration, so sharing is always
     *        safe.
     * @param options worker-pool and cache sizing knobs.
     */
    explicit BatchEvaluator(Engine engine,
                            std::shared_ptr<EvalCache> cache = nullptr,
                            BatchEvaluatorOptions options = {});

    /** Evaluate one point through the cache. */
    EvalResult evaluate(const Workload &workload, const Mapping &mapping,
                        const SafSpec &safs) const;

    /**
     * Evaluate a batch, sharing the results instead of copying them.
     * Returns one result per input point, in input order, each
     * bit-identical to `engine().evaluate` on that point; repeated
     * points share one result object, which the cache may hold too.
     * Invalid mappings (capacity overflow) come back as results with
     * `valid == false`. A malformed mapping that makes the engine
     * throw `FatalError` loses only its own result: every point that
     * shares its `EvalKey` comes back `valid == false` with the error
     * text in `invalid_reason`, nothing is cached for it, and every
     * other point's result is unchanged. A null `EvalPoint`
     * component throws `FatalError`; any other exception propagates.
     *
     * @param points evaluation points (pointers must be non-null).
     * @param stats optional out-parameter for work-sharing accounting;
     *        failed points are counted like any other.
     */
    std::vector<std::shared_ptr<const EvalResult>>
    evaluateShared(const std::vector<EvalPoint> &points,
                   BatchStats *stats = nullptr) const;

    /**
     * `evaluateShared` into @p results (replaced), reusing its
     * capacity: the same results, order, error contract and stats.
     * The batch's working vectors live in per-thread scratch that
     * keeps its capacity between calls, so a caller that keeps
     * @p results across batches allocates only for the fresh results
     * and the cache entries that hold them.
     */
    void evaluateSharedInto(
        const std::vector<EvalPoint> &points,
        std::vector<std::shared_ptr<const EvalResult>> &results,
        BatchStats *stats = nullptr) const;

    /**
     * `evaluateShared` with each result copied out: the same results,
     * order, error contract and stats.
     */
    std::vector<EvalResult>
    evaluateBatch(const std::vector<EvalPoint> &points,
                  BatchStats *stats = nullptr) const;

    /**
     * Batch hook for candidate searches: `evaluateBatch` over many
     * mappings of one (workload, SAF-spec) pair, with the same
     * results and error contract.
     *
     * @param mappings candidate mappings (pointers must be non-null
     *        and alive until the call returns).
     */
    std::vector<EvalResult>
    evaluateMappings(const Workload &workload,
                     const std::vector<const Mapping *> &mappings,
                     const SafSpec &safs,
                     BatchStats *stats = nullptr) const;

    /** Resolved worker count for @p jobs parallel jobs. */
    int threadCount(std::size_t jobs) const;

    const Engine &engine() const { return engine_; }
    EvalCache &cache() const { return *cache_; }
    const std::shared_ptr<EvalCache> &cachePtr() const { return cache_; }
    const BatchEvaluatorOptions &options() const { return options_; }

  private:
    Engine engine_;
    std::shared_ptr<EvalCache> cache_;
    BatchEvaluatorOptions options_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MODEL_BATCH_EVALUATOR_HH
