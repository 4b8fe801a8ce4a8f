/**
 * @file
 * Batched evaluation: dedupe by EvalKey, group by dense prefix, fan
 * groups out across a worker pool.
 */

#include "model/batch_evaluator.hh"

#include <algorithm>
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

/** An EvalKey carrying its hash, computed exactly once per batch:
 *  dedupe, grouping, cache lookup, and cache insertion all reuse it
 *  instead of re-hashing the key at each stage. */
struct HashedEvalKey
{
    EvalKey key;
    std::uint64_t hash = 0;
    bool operator==(const HashedEvalKey &o) const
    {
        return key == o.key;
    }
};

struct HashedEvalKeyHash
{
    std::size_t operator()(const HashedEvalKey &k) const
    {
        return static_cast<std::size_t>(k.hash);
    }
};

/** Same for the Step-1 prefix. */
struct HashedDenseKey
{
    DenseKey key;
    std::uint64_t hash = 0;
    bool operator==(const HashedDenseKey &o) const
    {
        return key == o.key;
    }
};

struct HashedDenseKeyHash
{
    std::size_t operator()(const HashedDenseKey &k) const
    {
        return static_cast<std::size_t>(k.hash);
    }
};

} // namespace

std::vector<EvalResult>
BatchEvaluator::evaluateBatch(const std::vector<EvalPoint> &points,
                              BatchStats *stats) const
{
    // 1. Dedupe: one job per distinct EvalKey; remember which job
    //    serves each input point. Each key (and its dense prefix) is
    //    hashed here, once, and the hash rides along through every
    //    later stage.
    struct Job
    {
        EvalKey key;
        std::uint64_t key_hash = 0;
        std::uint64_t dense_hash = 0;
        const EvalPoint *point = nullptr;
        std::shared_ptr<const DenseTraffic> dense;
        std::shared_ptr<const EvalResult> result;
    };
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
    std::vector<Job> jobs;
    std::vector<std::size_t> point_to_job(points.size());
    std::unordered_map<HashedEvalKey, std::size_t, HashedEvalKeyHash>
        job_of;
    job_of.reserve(points.size());
    // Sweeps share workloads/mappings/SAF specs across many points;
    // memoize each object's signature by address so it hashes once
    // (one map per type: different-typed objects may share addresses).
    auto memoized = [](auto &memo, const auto *ptr) {
        auto [it, inserted] = memo.emplace(ptr, 0);
        if (inserted) {
            it->second = ptr->signature();
        }
        return it->second;
    };
    std::unordered_map<const Workload *, std::uint64_t> workload_sigs;
    std::unordered_map<const Mapping *, std::uint64_t> mapping_sigs;
    std::unordered_map<const SafSpec *, std::uint64_t> saf_sigs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalPoint &p = points[i];
        if (!p.workload || !p.mapping || !p.safs) {
            SL_FATAL("EvalPoint ", i, " has a null component");
        }
        HashedEvalKey hkey;
        hkey.key.engine = engine_.signature();
        hkey.key.workload = memoized(workload_sigs, p.workload);
        hkey.key.mapping = memoized(mapping_sigs, p.mapping);
        hkey.key.safs = memoized(saf_sigs, p.safs);
        hkey.hash = hkey.key.hash();
        auto [it, inserted] = job_of.emplace(hkey, jobs.size());
        if (inserted) {
            Job job;
            job.key = hkey.key;
            job.key_hash = hkey.hash;
            job.dense_hash = hkey.key.densePrefix().hash();
            job.point = &p;
            jobs.push_back(std::move(job));
        }
        point_to_job[i] = it->second;
    }

    // 2. Resolve full-result cache hits up front, then group only the
    //    unresolved jobs by dense prefix so each of their Step-1 dense
    //    analyses runs (or is fetched) exactly once — and a batch of
    //    pure repeats never touches the dense level at all.
    std::vector<std::size_t> unresolved;
    unresolved.reserve(jobs.size());
    std::unordered_map<HashedDenseKey, std::vector<std::size_t>,
                       HashedDenseKeyHash>
        grouped;
    grouped.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].result = cache_->findResult(jobs[j].key,
                                            jobs[j].key_hash);
        if (!jobs[j].result) {
            unresolved.push_back(j);
            grouped[{jobs[j].key.densePrefix(), jobs[j].dense_hash}]
                .push_back(j);
        }
    }
    std::vector<std::vector<std::size_t>> groups;
    groups.reserve(grouped.size());
    for (auto &kv : grouped) {
        groups.push_back(std::move(kv.second));
    }

    if (stats) {
        stats->points = static_cast<std::int64_t>(points.size());
        stats->unique_points = static_cast<std::int64_t>(jobs.size());
        stats->dense_groups = static_cast<std::int64_t>(groups.size());
    }

    // 3. One wave over the dense groups on the persistent pool
    //    (chunked claiming, prompt abort and rethrow on the first
    //    exception other than the `FatalError`s caught per job below).
    //    Each group fetches its Step-1 dense traffic from the cache or
    //    computes it. A one-job group then runs steps 2-3 in the same
    //    task; if its dense entry missed it takes the cold
    //    `Engine::evaluate` path, which moves the dense traffic into
    //    the result instead of copying it, and its fresh dense entry
    //    is an aliasing pointer to that result's own `dense` member.
    //    The jobs of larger groups are left for a second wave, one
    //    task per job, which runs only when such a group exists.
    //    Workers only write into their own jobs[] and fresh[] slots;
    //    all cache insertions are buffered and merged in bulk after
    //    the waves, so the hot loops touch no shared mutex.
    std::vector<std::shared_ptr<const DenseTraffic>> fresh(groups.size());
    std::vector<std::size_t> shared_jobs;
    for (const std::vector<std::size_t> &group : groups) {
        if (group.size() > 1) {
            shared_jobs.insert(shared_jobs.end(), group.begin(),
                               group.end());
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
    parallel::parallelFor(
        threadCount(groups.size()), groups.size(), [&](std::size_t g) {
            const std::vector<std::size_t> &group = groups[g];
            Job &lead = jobs[group.front()];
            const EvalPoint &lp = *lead.point;
            std::shared_ptr<const DenseTraffic> dense = cache_->findDense(
                lead.key.densePrefix(), lead.dense_hash);
            if (!dense && group.size() == 1) {
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
                    for (std::size_t j : group) {
                        fail(jobs[j], err);
                    }
                    return;
                }
                fresh[g] = dense;
            }
            for (std::size_t j : group) {
                jobs[j].dense = dense;
            }
            if (group.size() == 1) {
                stepsTwoThree(lead);
            }
        });
    // Jobs whose group failed Step 1 already hold their invalid result.
    if (!shared_jobs.empty()) {
        parallel::parallelFor(
            threadCount(shared_jobs.size()), shared_jobs.size(),
            [&](std::size_t i) {
                Job &job = jobs[shared_jobs[i]];
                if (job.dense) {
                    stepsTwoThree(job);
                }
            });
    }
    {
        std::vector<EvalCache::DenseEntry> fresh_dense;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (fresh[g]) {
                const Job &lead = jobs[groups[g].front()];
                fresh_dense.push_back({lead.key.densePrefix(),
                                       lead.dense_hash,
                                       std::move(fresh[g])});
            }
        }
        if (!fresh_dense.empty()) {
            cache_->storeDenses(std::move(fresh_dense));
        }
        std::vector<EvalCache::ResultEntry> fresh_results;
        fresh_results.reserve(unresolved.size());
        for (std::size_t j : unresolved) {
            if (jobs[j].dense) {
                fresh_results.push_back(
                    {jobs[j].key, jobs[j].key_hash, jobs[j].result});
            }
        }
        if (!fresh_results.empty()) {
            cache_->storeResults(std::move(fresh_results));
        }
    }

    // 4. Scatter the deduplicated results back to input order.
    std::vector<EvalResult> results;
    results.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        results.push_back(*jobs[point_to_job[i]].result);
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
