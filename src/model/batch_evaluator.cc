/**
 * @file
 * Batched evaluation: dedupe by EvalKey, group by dense prefix, and
 * fan the groups out across the worker pool when they carry enough
 * work to pay for it.
 */

#include "model/batch_evaluator.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace sparseloop {

BatchEvaluator::BatchEvaluator(Engine engine,
                               std::shared_ptr<EvalCache> cache,
                               BatchEvaluatorOptions options)
    : engine_(std::move(engine)), cache_(std::move(cache)),
      options_(options)
{
    if (!cache_) {
        cache_ = std::make_shared<EvalCache>(options_.cache);
    }
}

EvalResult
BatchEvaluator::evaluate(const Workload &workload, const Mapping &mapping,
                         const SafSpec &safs) const
{
    return evaluateCached(engine_, *cache_, workload, mapping, safs);
}

int
BatchEvaluator::threadCount(std::size_t jobs) const
{
    return parallel::resolveThreadCount(
        options_.num_threads, static_cast<std::int64_t>(jobs));
}

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Least estimated work, in engine time, worth a wake-up of the worker
 * pool. A wave runs its items on the calling thread one at a time and
 * hands the remaining ones to the pool as soon as their estimated work
 * (mean time per item so far x items left) exceeds this.
 *
 * The value is provisional. An empty `parallelFor(4, n)` round trip
 * cost 6-10 us on x86 hosts, and a cold `Engine::evaluate` of a
 * ResNet-50 candidate on SCNN or Eyeriss V2 PE about 2.5 us, so 40 us
 * is a few round trips, or about 16 cold candidates. No break-even
 * has been measured on a host whose cores run in parallel: the only
 * host it was timed on, a 4-thread container, had one core of CPU
 * quota, where the pool cannot win at any size.
 */
constexpr Clock::duration kFanOutMinWork = std::chrono::microseconds(40);

/**
 * Run body(i) for every i in [0, count). Items run on the calling
 * thread in order, timed; after each one, when the mean time so far
 * times the items left exceeds `kFanOutMinWork` and @p evaluator's
 * thread count allows it, the rest go to the pool as one
 * `parallelFor`. A cheap or failing item therefore cannot keep an
 * expensive wave inline. Returns the number of items handed to the
 * pool.
 */
template <typename Body>
std::int64_t
runWave(const BatchEvaluator &evaluator, std::size_t count,
        const Body &body)
{
    const bool may_pool = evaluator.threadCount(count) > 1;
    const Clock::time_point start =
        may_pool ? Clock::now() : Clock::time_point{};
    for (std::size_t done = 0; done < count;) {
        body(done++);
        const std::size_t rest = count - done;
        if (may_pool && rest > 1 &&
            (Clock::now() - start) * static_cast<Clock::rep>(rest) >
                kFanOutMinWork * static_cast<Clock::rep>(done)) {
            parallel::parallelFor(evaluator.threadCount(rest), rest,
                                  [&](std::size_t i) { body(done + i); });
            return static_cast<std::int64_t>(rest);
        }
    }
    return 0;
}

/**
 * Set `field` of keys[i] to the signature of points[i].*object,
 * calling `signature()` once per distinct object: sweeps share
 * workloads, mappings and SAF specs across many points. @p by_address
 * is scratch.
 */
template <typename T>
void
memoizedSignatures(
    const std::vector<EvalPoint> &points, const T *EvalPoint::*object,
    std::uint64_t EvalKey::*field, std::vector<EvalKey> &keys,
    std::vector<std::pair<std::uintptr_t, std::size_t>> &by_address)
{
    by_address.clear();
    for (std::size_t i = 0; i < points.size(); ++i) {
        by_address.emplace_back(
            reinterpret_cast<std::uintptr_t>(points[i].*object), i);
    }
    std::sort(by_address.begin(), by_address.end());
    std::uint64_t sig = 0;
    for (std::size_t r = 0; r < by_address.size(); ++r) {
        if (r == 0 || by_address[r].first != by_address[r - 1].first) {
            sig = (points[by_address[r].second].*object)->signature();
        }
        keys[by_address[r].second].*field = sig;
    }
}

/**
 * Sort @p items on (key_of(item), item). @p key_of returns a tuple
 * that leads with the item's precomputed hash, so most comparisons
 * stop at the first field, and equal keys end up adjacent in
 * ascending item order.
 */
template <typename KeyOf>
void
sortByKey(std::vector<std::size_t> &items, const KeyOf &key_of)
{
    std::sort(items.begin(), items.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::tuple_cat(key_of(a), std::tie(a)) <
                         std::tuple_cat(key_of(b), std::tie(b));
              });
}

/** One distinct EvalKey of a batch and what resolves it. */
struct Job
{
    EvalKey key;
    std::uint64_t key_hash = 0;
    std::uint64_t dense_hash = 0;
    const EvalPoint *point = nullptr;
    std::shared_ptr<const DenseTraffic> dense;
    std::shared_ptr<const EvalResult> result;
};

/**
 * The working vectors of one `evaluateSharedInto` call. Each thread
 * keeps one between calls so their capacity is reused; `release`
 * drops every shared result and traffic they still reference, so the
 * scratch never keeps a result alive past its batch, and frees the
 * vectors outright after a batch larger than `kKeptPoints`.
 */
struct BatchScratch
{
    static constexpr std::size_t kKeptPoints = 4096;

    std::vector<EvalKey> keys;
    std::vector<std::uint64_t> hashes;
    std::vector<std::pair<std::uintptr_t, std::size_t>> by_address;
    std::vector<std::size_t> order;
    std::vector<std::size_t> point_to_job;
    std::vector<Job> jobs;
    std::vector<std::size_t> unresolved;
    std::vector<std::size_t> group_jobs;
    std::vector<std::size_t> group_begin;
    std::vector<std::size_t> shared_jobs;
    std::vector<std::shared_ptr<const DenseTraffic>> fresh;
    std::vector<EvalCache::DenseEntry> fresh_dense;
    std::vector<EvalCache::ResultEntry> fresh_results;
    bool busy = false;

    void release()
    {
        if (keys.capacity() > kKeptPoints) {
            *this = BatchScratch();
            return;
        }
        jobs.clear();
        fresh.clear();
        fresh_dense.clear();
        fresh_results.clear();
        busy = false;
    }
};

/**
 * This thread's batch scratch for the duration of one call, or a
 * private one when the thread's is already in use (a batch evaluated
 * from inside another batch's task on the same thread).
 */
class ScratchLease
{
  public:
    ScratchLease()
    {
        thread_local BatchScratch tls_scratch;
        if (tls_scratch.busy) {
            own_ = std::make_unique<BatchScratch>();
            scratch_ = own_.get();
        } else {
            scratch_ = &tls_scratch;
        }
        scratch_->busy = true;
    }
    ~ScratchLease() { scratch_->release(); }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    BatchScratch &operator*() const { return *scratch_; }

  private:
    BatchScratch *scratch_ = nullptr;
    std::unique_ptr<BatchScratch> own_;
};

} // namespace

std::vector<std::shared_ptr<const EvalResult>>
BatchEvaluator::evaluateShared(const std::vector<EvalPoint> &points,
                               BatchStats *stats) const
{
    std::vector<std::shared_ptr<const EvalResult>> results;
    evaluateSharedInto(points, results, stats);
    return results;
}

void
BatchEvaluator::evaluateSharedInto(
    const std::vector<EvalPoint> &points,
    std::vector<std::shared_ptr<const EvalResult>> &results,
    BatchStats *stats) const
{
    // A job the engine threw `FatalError` on gets an invalid stand-in
    // result and no dense traffic; an unresolved job without dense
    // traffic is never cached.
    auto fail = [](Job &job, const FatalError &err) {
        auto bad = std::make_shared<EvalResult>();
        bad->valid = false;
        bad->invalid_reason = err.what();
        job.result = std::move(bad);
        job.dense = nullptr;
    };
    const std::size_t n = points.size();
    for (std::size_t i = 0; i < n; ++i) {
        const EvalPoint &p = points[i];
        if (!p.workload || !p.mapping || !p.safs) {
            SL_FATAL("EvalPoint ", i, " has a null component");
        }
    }
    ScratchLease lease;
    BatchScratch &sc = *lease;

    // 1. Dedupe: one job per distinct EvalKey, in order of first
    //    occurrence; remember which job serves each input point. Each
    //    key is hashed here, once, and the hash rides along through
    //    every later stage.
    std::vector<EvalKey> &keys = sc.keys;
    std::vector<std::uint64_t> &hashes = sc.hashes;
    keys.assign(n, EvalKey{});
    hashes.assign(n, 0);
    memoizedSignatures(points, &EvalPoint::workload, &EvalKey::workload,
                       keys, sc.by_address);
    memoizedSignatures(points, &EvalPoint::mapping, &EvalKey::mapping,
                       keys, sc.by_address);
    memoizedSignatures(points, &EvalPoint::safs, &EvalKey::safs, keys,
                       sc.by_address);
    for (std::size_t i = 0; i < n; ++i) {
        keys[i].engine = engine_.signature();
        hashes[i] = keys[i].hash();
    }
    auto pointKey = [&](std::size_t i) {
        const EvalKey &k = keys[i];
        return std::make_tuple(hashes[i], k.engine, k.workload, k.mapping,
                               k.safs);
    };
    std::vector<std::size_t> &order = sc.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    sortByKey(order, pointKey);
    // point_to_job first holds each point's first occurrence (the
    // head of its run in `order`), then, below, its job index.
    std::vector<std::size_t> &point_to_job = sc.point_to_job;
    point_to_job.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        point_to_job[order[r]] =
            r > 0 && pointKey(order[r - 1]) == pointKey(order[r])
                ? point_to_job[order[r - 1]]
                : order[r];
    }
    std::vector<Job> &jobs = sc.jobs;
    for (std::size_t i = 0; i < n; ++i) {
        // A repeat's first occurrence precedes it and already holds
        // its job index.
        if (point_to_job[i] != i) {
            point_to_job[i] = point_to_job[point_to_job[i]];
            continue;
        }
        point_to_job[i] = jobs.size();
        Job &job = jobs.emplace_back();
        job.key = keys[i];
        job.key_hash = hashes[i];
        job.point = &points[i];
    }

    // 2. Resolve full-result cache hits up front, then group only the
    //    unresolved jobs by dense prefix so each of their Step-1 dense
    //    analyses runs (or is fetched) exactly once — and a batch of
    //    pure repeats never touches the dense level at all. Groups
    //    are flat: group g's jobs are
    //    group_jobs[group_begin[g] .. group_begin[g + 1]), ascending,
    //    and the groups are in dense-hash order.
    std::vector<std::size_t> &unresolved = sc.unresolved;
    unresolved.clear();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        Job &job = jobs[j];
        job.result = cache_->findResult(job.key, job.key_hash);
        if (!job.result) {
            job.dense_hash = job.key.densePrefix().hash();
            unresolved.push_back(j);
        }
    }
    // Sorted on the dense prefix, each run of equal prefixes is one
    // group.
    auto denseKey = [&](std::size_t j) {
        const Job &job = jobs[j];
        return std::make_tuple(job.dense_hash, job.key.engine,
                               job.key.workload, job.key.mapping);
    };
    std::vector<std::size_t> &group_jobs = sc.group_jobs;
    group_jobs.assign(unresolved.begin(), unresolved.end());
    sortByKey(group_jobs, denseKey);
    std::vector<std::size_t> &group_begin = sc.group_begin;
    group_begin.clear();
    for (std::size_t r = 0; r < group_jobs.size(); ++r) {
        if (r == 0 ||
            denseKey(group_jobs[r - 1]) != denseKey(group_jobs[r])) {
            group_begin.push_back(r);
        }
    }
    const std::size_t group_count = group_begin.size();
    group_begin.push_back(group_jobs.size());

    // 3. One wave over the dense groups (see `runWave`: groups run on
    //    the calling thread until the ones left are estimated to carry
    //    enough work for the persistent pool; there, chunked
    //    claiming, prompt abort and rethrow on the first exception
    //    other than the `FatalError`s caught per job below).
    //    Each group fetches its Step-1 dense traffic from the cache or
    //    computes it. A one-job group then runs steps 2-3 in the same
    //    task; if its dense entry missed it takes the cold
    //    `Engine::evaluate` path, which moves the dense traffic into
    //    the result instead of copying it, and its fresh dense entry
    //    is an aliasing pointer to that result's own `dense` member.
    //    The jobs of larger groups are left for a second wave, one
    //    task per job under the same rule, which runs only when such
    //    a group exists. Tasks only write into their own jobs[] and
    //    fresh[] slots; all cache insertions are buffered and merged
    //    in bulk after the waves, so the hot loops touch no shared
    //    mutex.
    std::vector<std::shared_ptr<const DenseTraffic>> &fresh = sc.fresh;
    fresh.resize(group_count);
    std::vector<std::size_t> &shared_jobs = sc.shared_jobs;
    shared_jobs.clear();
    for (std::size_t g = 0; g < group_count; ++g) {
        if (group_begin[g + 1] - group_begin[g] > 1) {
            shared_jobs.insert(shared_jobs.end(),
                               group_jobs.begin() + group_begin[g],
                               group_jobs.begin() + group_begin[g + 1]);
        }
    }
    auto stepsTwoThree = [&](Job &job) {
        const EvalPoint &p = *job.point;
        try {
            job.result = std::make_shared<const EvalResult>(
                engine_.evaluateFromDense(*p.workload, *p.mapping,
                                          *p.safs, *job.dense));
        } catch (const FatalError &err) {
            fail(job, err);
        }
    };
    const std::int64_t pooled_groups =
        runWave(*this, group_count, [&](std::size_t g) {
            const std::size_t *first = group_jobs.data() + group_begin[g];
            const std::size_t *last =
                group_jobs.data() + group_begin[g + 1];
            Job &lead = jobs[*first];
            const EvalPoint &lp = *lead.point;
            std::shared_ptr<const DenseTraffic> dense = cache_->findDense(
                lead.key.densePrefix(), lead.dense_hash);
            const bool single = last - first == 1;
            if (!dense && single) {
                try {
                    auto result = std::make_shared<const EvalResult>(
                        engine_.evaluate(*lp.workload, *lp.mapping,
                                         *lp.safs));
                    lead.dense = std::shared_ptr<const DenseTraffic>(
                        result, &result->dense);
                    lead.result = std::move(result);
                    fresh[g] = lead.dense;
                } catch (const FatalError &err) {
                    fail(lead, err);
                }
                return;
            }
            if (!dense) {
                // A group shares its workload and mapping, so a
                // malformed mapping fails every job in it.
                try {
                    dense = std::make_shared<const DenseTraffic>(
                        engine_.analyzeDataflow(*lp.workload,
                                                *lp.mapping));
                } catch (const FatalError &err) {
                    for (const std::size_t *j = first; j != last; ++j) {
                        fail(jobs[*j], err);
                    }
                    return;
                }
                fresh[g] = dense;
            }
            for (const std::size_t *j = first; j != last; ++j) {
                jobs[*j].dense = dense;
            }
            if (single) {
                stepsTwoThree(lead);
            }
        });
    // Jobs whose group failed Step 1 already hold their invalid result.
    const std::int64_t pooled_jobs =
        runWave(*this, shared_jobs.size(), [&](std::size_t i) {
            Job &job = jobs[shared_jobs[i]];
            if (job.dense) {
                stepsTwoThree(job);
            }
        });
    for (std::size_t g = 0; g < group_count; ++g) {
        if (fresh[g]) {
            const Job &lead = jobs[group_jobs[group_begin[g]]];
            sc.fresh_dense.push_back({lead.key.densePrefix(),
                                      lead.dense_hash,
                                      std::move(fresh[g])});
        }
    }
    if (!sc.fresh_dense.empty()) {
        cache_->storeDenses(std::move(sc.fresh_dense));
    }
    for (std::size_t j : unresolved) {
        if (jobs[j].dense) {
            sc.fresh_results.push_back(
                {jobs[j].key, jobs[j].key_hash, jobs[j].result});
        }
    }
    if (!sc.fresh_results.empty()) {
        cache_->storeResults(std::move(sc.fresh_results));
    }

    if (stats) {
        stats->points = static_cast<std::int64_t>(n);
        stats->unique_points = static_cast<std::int64_t>(jobs.size());
        stats->dense_groups = static_cast<std::int64_t>(group_count);
        stats->pooled_groups = pooled_groups;
        stats->pooled_jobs = pooled_jobs;
    }

    // 4. Hand back the deduplicated results in input order.
    results.clear();
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        results.push_back(jobs[point_to_job[i]].result);
    }
}

std::vector<EvalResult>
BatchEvaluator::evaluateBatch(const std::vector<EvalPoint> &points,
                              BatchStats *stats) const
{
    std::vector<std::shared_ptr<const EvalResult>> shared =
        evaluateShared(points, stats);
    std::vector<EvalResult> results;
    results.reserve(shared.size());
    for (const auto &result : shared) {
        results.push_back(*result);
    }
    return results;
}

std::vector<EvalResult>
BatchEvaluator::evaluateMappings(
    const Workload &workload,
    const std::vector<const Mapping *> &mappings, const SafSpec &safs,
    BatchStats *stats) const
{
    std::vector<EvalPoint> points;
    points.reserve(mappings.size());
    for (const Mapping *mapping : mappings) {
        points.push_back({&workload, mapping, &safs});
    }
    return evaluateBatch(points, stats);
}

} // namespace sparseloop
