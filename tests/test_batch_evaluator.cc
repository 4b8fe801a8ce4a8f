/**
 * @file
 * Tests for the batch evaluator: batched results must be bit-identical
 * to uncached sequential evaluation at every thread count, duplicates
 * must deduplicate, dense prefixes must group, caches must be shared,
 * cold one-point groups must store dense entries that alias their
 * results and outlive their eviction without pinning them, null
 * points must throw, malformed mappings must come back invalid
 * without touching the other results, and only batches with enough
 * work may reach the worker pool.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "density/actual_data.hh"
#include "mapper/mapper.hh"
#include "model/batch_evaluator.hh"
#include "tensor/generate.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
batchArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 64 * 1024;
    buf.bandwidth_words_per_cycle = 32.0;
    buf.fanout = 16;
    return Architecture("batch-test", {dram, buf}, ComputeSpec{});
}

/** A small (mappings x SAF specs) sweep over one workload. */
struct Sweep
{
    Workload workload;
    std::vector<Mapping> mappings;
    std::vector<SafSpec> safs;
    std::vector<EvalPoint> points;

    explicit Sweep(const Architecture &arch)
        : workload(makeMatmul(32, 32, 32))
    {
        bindUniformDensities(workload, {{"A", 0.2}, {"B", 0.2}});
        for (std::int64_t spatial : {16, 8, 4}) {
            mappings.push_back(MappingBuilder(workload, arch)
                                   .temporal(0, "M", 32)
                                   .spatial(1, "N", spatial)
                                   .temporal(1, "N", 32 / spatial)
                                   .temporal(1, "K", 32)
                                   .buildComplete());
        }
        int A = workload.tensorIndex("A");
        int B = workload.tensorIndex("B");
        for (SafKind kind : {SafKind::Skip, SafKind::Gate}) {
            for (const TensorFormat &fmt : {makeCsr(), makeCoo(2)}) {
                SafSpec spec;
                spec.addFormat(1, A, fmt);
                if (kind == SafKind::Skip) {
                    spec.addSkip(1, B, {A});
                } else {
                    spec.addGate(1, B, {A});
                }
                safs.push_back(std::move(spec));
            }
        }
        for (const Mapping &m : mappings) {
            for (const SafSpec &s : safs) {
                points.push_back({&workload, &m, &s});
            }
        }
    }
};

TEST(BatchEvaluator, MatchesSequentialAcrossThreadCounts)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    Engine engine(arch);
    std::vector<EvalResult> expected;
    for (const EvalPoint &p : sweep.points) {
        expected.push_back(
            engine.evaluate(*p.workload, *p.mapping, *p.safs));
    }
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        std::vector<EvalResult> results =
            evaluator.evaluateBatch(sweep.points);
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(bitIdentical(expected[i], results[i]))
                << "point " << i;
        }
    }
}

TEST(BatchEvaluator, DeduplicatesAndGroupsByDensePrefix)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    // Submit the sweep twice over: half the points are duplicates.
    std::vector<EvalPoint> doubled = sweep.points;
    doubled.insert(doubled.end(), sweep.points.begin(),
                   sweep.points.end());

    BatchEvaluator evaluator{Engine(arch)};
    BatchStats stats;
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(doubled, &stats);
    EXPECT_EQ(stats.points,
              static_cast<std::int64_t>(doubled.size()));
    EXPECT_EQ(stats.unique_points,
              static_cast<std::int64_t>(sweep.points.size()));
    // One dense group per distinct mapping: the SAF axis shares Step 1.
    EXPECT_EQ(stats.dense_groups,
              static_cast<std::int64_t>(sweep.mappings.size()));
    // Duplicate inputs receive bit-identical outputs.
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_TRUE(bitIdentical(results[i],
                                 results[i + sweep.points.size()]));
    }
    // The cache only ever computed the unique points.
    EvalCacheStats cs = evaluator.cache().stats();
    EXPECT_EQ(cs.result_entries, sweep.points.size());
    EXPECT_EQ(cs.dense_entries, sweep.mappings.size());
}

TEST(BatchEvaluator, SecondBatchIsServedFromCache)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    std::vector<EvalResult> first =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats before = evaluator.cache().stats();
    std::vector<EvalResult> second =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats after = evaluator.cache().stats();
    EXPECT_EQ(after.result_misses, before.result_misses);
    EXPECT_EQ(after.result_hits - before.result_hits,
              static_cast<std::int64_t>(sweep.points.size()));
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(bitIdentical(first[i], second[i]));
    }
}

TEST(BatchEvaluator, ColdGroupsStoreAliasedDenseEntries)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    Engine engine(arch);

    // The default cache keeps everything; a one-shard cache bounded at
    // two entries per level (and fed two mappings, so no dense entry
    // is evicted) evicts results whose aliasing dense entries must
    // survive intact without pinning the evicted results.
    EvalCacheOptions bounded;
    bounded.shards = 1;
    bounded.max_entries_per_shard = 2;
    for (const EvalCacheOptions &copts : {EvalCacheOptions{}, bounded}) {
        SCOPED_TRACE("max_entries_per_shard=" +
                     std::to_string(copts.max_entries_per_shard));
        const bool evicts = copts.max_entries_per_shard == 2;
        const std::size_t used = evicts ? 2 : sweep.mappings.size();
        auto cache = std::make_shared<EvalCache>(copts);
        BatchEvaluatorOptions opts;
        opts.num_threads = 4;
        BatchEvaluator evaluator(engine, cache, opts);

        // One point per mapping under one SAF spec: every dense group
        // has one job.
        auto batchUnder = [&](const SafSpec &safs) {
            std::vector<EvalPoint> points;
            for (std::size_t m = 0; m < used; ++m) {
                points.push_back({&sweep.workload, &sweep.mappings[m],
                                  &safs});
            }
            return points;
        };
        auto expectMatchesEngine = [&](const std::vector<EvalPoint> &pts) {
            std::vector<EvalResult> got = evaluator.evaluateBatch(pts);
            ASSERT_EQ(got.size(), pts.size());
            for (std::size_t i = 0; i < pts.size(); ++i) {
                const EvalPoint &p = pts[i];
                EXPECT_TRUE(bitIdentical(
                    got[i],
                    engine.evaluate(*p.workload, *p.mapping, *p.safs)))
                    << "point " << i;
            }
        };
        auto expectDenseEntries = [&] {
            for (std::size_t m = 0; m < used; ++m) {
                const Mapping &mapping = sweep.mappings[m];
                auto dense = cache->findDense(
                    DenseKey::of(engine, sweep.workload, mapping));
                ASSERT_TRUE(dense) << "mapping " << m;
                EXPECT_EQ(*dense,
                          engine.analyzeDataflow(sweep.workload, mapping))
                    << "mapping " << m;
            }
        };

        // A cold batch stores dense entries that alias the `dense`
        // member of their results instead of copying it.
        std::vector<EvalPoint> cold = batchUnder(sweep.safs[0]);
        expectMatchesEngine(cold);
        std::vector<std::weak_ptr<const EvalResult>> cold_results;
        for (const EvalPoint &p : cold) {
            auto result = cache->findResult(
                EvalKey::of(engine, *p.workload, *p.mapping, *p.safs));
            ASSERT_TRUE(result);
            EXPECT_EQ(cache->findDense(DenseKey::of(engine, *p.workload,
                                                    *p.mapping))
                          .get(),
                      &result->dense);
            cold_results.push_back(result);
        }
        expectDenseEntries();

        // Under the other SAF specs the same mappings hit the dense
        // level and still match the engine.
        for (std::size_t s = 1; s < sweep.safs.size(); ++s) {
            std::vector<EvalPoint> warm = batchUnder(sweep.safs[s]);
            EvalCacheStats before = cache->stats();
            expectMatchesEngine(warm);
            EvalCacheStats after = cache->stats();
            EXPECT_EQ(after.dense_misses, before.dense_misses);
            EXPECT_EQ(after.dense_hits - before.dense_hits,
                      static_cast<std::int64_t>(used));
            EXPECT_EQ(after.dense_entries, used);
        }
        if (evicts) {
            // The last insertion always survives, so at most one of
            // the cold results is still resident. An evicted one is
            // freed: its dense entry now holds a copy of the traffic.
            std::size_t evicted = 0;
            for (std::size_t i = 0; i < cold.size(); ++i) {
                const EvalPoint &p = cold[i];
                if (!cache->findResult(EvalKey::of(engine, *p.workload,
                                                   *p.mapping, *p.safs))) {
                    ++evicted;
                    EXPECT_TRUE(cold_results[i].expired()) << "point " << i;
                }
            }
            EXPECT_GE(evicted, 1u);
        }
        expectDenseEntries();
    }
}

TEST(BatchEvaluator, SingleEvaluateSharesTheCache)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    EvalResult single = evaluator.evaluate(
        sweep.workload, sweep.mappings[0], sweep.safs[0]);
    // The batch then hits the single-point entry.
    EvalCacheStats before = evaluator.cache().stats();
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats after = evaluator.cache().stats();
    EXPECT_GT(after.result_hits, before.result_hits);
    EXPECT_TRUE(bitIdentical(single, results[0]));
}

TEST(BatchEvaluator, SharedCacheLinksMapperAndBatch)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    auto cache = std::make_shared<EvalCache>();
    BatchEvaluator evaluator(Engine(arch), cache);
    evaluator.evaluateBatch(sweep.points);

    // A mapper over the same workload/SAFs reuses the shared cache; a
    // batch re-run after the search stays bit-identical.
    MapperOptions opts;
    opts.samples = 50;
    opts.cache = cache;
    Mapper mapper(sweep.workload, arch, sweep.safs[0], opts);
    MapperResult searched = mapper.search();
    ASSERT_TRUE(searched.found);
    MapperResult plain_opts_result =
        Mapper(sweep.workload, arch, sweep.safs[0],
               [&] {
                   MapperOptions p = opts;
                   p.cache = nullptr;
                   return p;
               }())
            .search();
    EXPECT_TRUE(bitIdentical(searched.eval, plain_opts_result.eval));

    std::vector<EvalResult> again =
        evaluator.evaluateBatch(sweep.points);
    Engine engine(arch);
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const EvalPoint &p = sweep.points[i];
        EXPECT_TRUE(bitIdentical(
            again[i],
            engine.evaluate(*p.workload, *p.mapping, *p.safs)));
    }
}

TEST(BatchEvaluator, NullPointComponentsAreFatal)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    std::vector<EvalPoint> points{{&sweep.workload, nullptr, nullptr}};
    EXPECT_THROW(evaluator.evaluateBatch(points), FatalError);
}

TEST(BatchEvaluator, MalformedMappingComesBackInvalid)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    // A nest whose loop bounds don't cover the workload dims fails in
    // Step 1; it is sent twice. A SAF at a level the architecture
    // lacks fails in Step 2, beside good points sharing its Step-1
    // prefix.
    Mapping broken(std::vector<LevelNest>{
        LevelNest{{Loop{0, 7, false}}, {}}, LevelNest{{}, {}}});
    SafSpec bad_safs;
    bad_safs.addSkip(5, sweep.workload.tensorIndex("B"),
                     {sweep.workload.tensorIndex("A")});
    std::vector<EvalPoint> points = sweep.points;
    points.push_back({&sweep.workload, &broken, &sweep.safs[0]});
    points.push_back({&sweep.workload, &broken, &sweep.safs[0]});
    points.push_back({&sweep.workload, &sweep.mappings[0], &bad_safs});
    BatchEvaluatorOptions opts;
    opts.num_threads = 4;
    BatchEvaluator evaluator(Engine(arch), nullptr, opts);
    BatchStats stats;
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(points, &stats);
    ASSERT_EQ(results.size(), points.size());

    const std::size_t good = sweep.points.size();
    for (std::size_t i = good; i < points.size(); ++i) {
        EXPECT_FALSE(results[i].valid) << "point " << i;
        EXPECT_FALSE(results[i].invalid_reason.empty()) << "point " << i;
    }
    Engine engine(arch);
    for (std::size_t i = 0; i < good; ++i) {
        const EvalPoint &p = points[i];
        EXPECT_TRUE(bitIdentical(
            results[i], engine.evaluate(*p.workload, *p.mapping, *p.safs)))
            << "point " << i;
    }
    // Both broken copies dedupe into one job; only the good jobs and
    // their Step-1 prefixes are cached.
    EXPECT_EQ(stats.points, static_cast<std::int64_t>(points.size()));
    EXPECT_EQ(stats.unique_points, static_cast<std::int64_t>(good) + 2);
    EvalCacheStats cached = evaluator.cache().stats();
    EXPECT_EQ(cached.result_entries, good);
    EXPECT_EQ(cached.dense_entries, sweep.mappings.size());
    EXPECT_FALSE(evaluator.cache().findResult(EvalKey::of(
        evaluator.engine(), sweep.workload, broken, sweep.safs[0])));
}

TEST(BatchEvaluator, MalformedSharedPrefixFailsEveryJobInItsGroup)
{
    // The broken mapping under several SAF specs forms one dense group
    // whose Step 1 fails once for all of its jobs; the good group
    // beside it still runs steps 2-3 for each of its jobs.
    Architecture arch = batchArch();
    Sweep sweep(arch);
    Mapping broken(std::vector<LevelNest>{
        LevelNest{{Loop{0, 7, false}}, {}}, LevelNest{{}, {}}});
    std::vector<EvalPoint> points;
    for (const SafSpec &safs : sweep.safs) {
        points.push_back({&sweep.workload, &broken, &safs});
        points.push_back({&sweep.workload, &sweep.mappings[0], &safs});
    }
    BatchEvaluatorOptions opts;
    opts.num_threads = 4;
    BatchEvaluator evaluator(Engine(arch), nullptr, opts);
    BatchStats stats;
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(points, &stats);
    EXPECT_EQ(stats.dense_groups, 2);
    Engine engine(arch);
    for (std::size_t i = 0; i < points.size(); i += 2) {
        EXPECT_FALSE(results[i].valid) << "point " << i;
        EXPECT_FALSE(results[i].invalid_reason.empty()) << "point " << i;
        const EvalPoint &p = points[i + 1];
        EXPECT_TRUE(bitIdentical(
            results[i + 1],
            engine.evaluate(*p.workload, *p.mapping, *p.safs)))
            << "point " << i + 1;
    }
    EvalCacheStats cached = evaluator.cache().stats();
    EXPECT_EQ(cached.result_entries, sweep.safs.size());
    EXPECT_EQ(cached.dense_entries, 1u);
}

/** Every result of @p points bit-identical to `Engine::evaluate`. */
void
expectMatchesEngine(const Engine &engine,
                    const std::vector<EvalPoint> &points,
                    const std::vector<EvalResult> &results)
{
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalPoint &p = points[i];
        EXPECT_TRUE(bitIdentical(
            results[i], engine.evaluate(*p.workload, *p.mapping, *p.safs)))
            << "point " << i;
    }
}

TEST(BatchEvaluator, ExpensiveBatchesFanOutToThePool)
{
    // Actual-data densities make every evaluation enumerate the
    // operands' intersections: milliseconds of work per point, far
    // above what a pool wake-up costs.
    Architecture arch = batchArch();
    Sweep sweep(arch);
    sweep.workload.setDensity(
        "A", makeActualDataDensity(std::make_shared<const SparseTensor>(
                 generateUniform({32, 32}, 0.2, /*seed=*/1))));
    sweep.workload.setDensity(
        "B", makeActualDataDensity(std::make_shared<const SparseTensor>(
                 generateUniform({32, 32}, 0.2, /*seed=*/2))));
    Engine engine(arch);
    BatchEvaluatorOptions opts;
    opts.num_threads = 4;
    const bool pooled = parallel::hardwareThreads() > 1;

    // One job per dense group: the first wave fans out after its
    // first, timed group.
    std::vector<EvalPoint> singles;
    for (const Mapping &m : sweep.mappings) {
        singles.push_back({&sweep.workload, &m, &sweep.safs[0]});
    }
    {
        BatchEvaluator evaluator(engine, nullptr, opts);
        BatchStats stats;
        std::vector<EvalResult> got =
            evaluator.evaluateBatch(singles, &stats);
        expectMatchesEngine(engine, singles, got);
        EXPECT_EQ(stats.dense_groups,
                  static_cast<std::int64_t>(singles.size()));
        if (pooled) {
            EXPECT_EQ(stats.pooled_groups,
                      static_cast<std::int64_t>(singles.size()) - 1);
        }
    }
    // Every mapping under every SAF spec: steps 2-3 of the multi-job
    // groups fan out in the second wave.
    {
        BatchEvaluator evaluator(engine, nullptr, opts);
        BatchStats stats;
        std::vector<EvalResult> got =
            evaluator.evaluateBatch(sweep.points, &stats);
        expectMatchesEngine(engine, sweep.points, got);
        if (pooled) {
            EXPECT_EQ(stats.pooled_jobs,
                      static_cast<std::int64_t>(sweep.points.size()) - 1);
        }
    }
}

TEST(BatchEvaluator, CheapFirstGroupDoesNotKeepExpensiveGroupsInline)
{
    // Dense groups run in dense-hash order, so the first one can be
    // far cheaper than the rest: here a group whose dense traffic is
    // cached (its task is one lookup) sorts ahead of three actual-data
    // evaluations. The wave must still fan out once it has timed an
    // expensive group.
    Architecture arch = batchArch();
    Sweep cheap(arch);
    Sweep costly(arch);
    costly.workload.setDensity(
        "A", makeActualDataDensity(std::make_shared<const SparseTensor>(
                 generateUniform({32, 32}, 0.2, /*seed=*/1))));
    costly.workload.setDensity(
        "B", makeActualDataDensity(std::make_shared<const SparseTensor>(
                 generateUniform({32, 32}, 0.2, /*seed=*/2))));
    Engine engine(arch);
    auto denseHash = [&](const EvalPoint &p) {
        return DenseKey{engine.signature(), p.workload->signature(),
                        p.mapping->signature()}
            .hash();
    };
    std::vector<EvalPoint> points;
    std::uint64_t first_costly = ~std::uint64_t{0};
    for (const Mapping &m : costly.mappings) {
        points.push_back({&costly.workload, &m, &costly.safs[0]});
        first_costly = std::min(first_costly, denseHash(points.back()));
    }
    MapSpace space(cheap.workload, arch);
    std::vector<Mapping> candidates;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        candidates.push_back(space.materialize(space.samplePoint(seed)));
    }
    EvalPoint lead{&cheap.workload, &candidates[0], &cheap.safs[0]};
    for (const Mapping &m : candidates) {
        EvalPoint p{&cheap.workload, &m, &cheap.safs[0]};
        if (denseHash(p) < denseHash(lead)) {
            lead = p;
        }
    }
    ASSERT_LT(denseHash(lead), first_costly);

    BatchEvaluatorOptions opts;
    opts.num_threads = 4;
    BatchEvaluator evaluator(engine, nullptr, opts);
    evaluator.evaluate(*lead.workload, *lead.mapping, cheap.safs[0]);
    for (std::size_t s = 1; s < 3; ++s) {
        lead.safs = &cheap.safs[s];
        points.insert(points.begin(), lead);
    }
    BatchStats stats;
    std::vector<EvalResult> got = evaluator.evaluateBatch(points, &stats);
    expectMatchesEngine(engine, points, got);
    EXPECT_EQ(stats.dense_groups, 4);
    if (parallel::hardwareThreads() > 1) {
        EXPECT_GT(stats.pooled_groups, 0);
    }
}

TEST(BatchEvaluator, CheapRoundIsIdenticalAtOneAndFourThreads)
{
    // A mapper-sized round: 8 cheap statistical-density candidates
    // under one SAF spec, which may run entirely on the calling
    // thread.
    Architecture arch = batchArch();
    Sweep sweep(arch);
    MapSpace space(sweep.workload, arch);
    std::vector<Mapping> mappings;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        mappings.push_back(space.materialize(space.samplePoint(seed)));
    }
    std::vector<EvalPoint> points;
    for (const Mapping &m : mappings) {
        points.push_back({&sweep.workload, &m, &sweep.safs[0]});
    }
    Engine engine(arch);
    std::vector<std::vector<EvalResult>> runs;
    for (int threads : {1, 4}) {
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        BatchStats stats;
        runs.push_back(evaluator.evaluateBatch(points, &stats));
        expectMatchesEngine(engine, points, runs.back());
        if (threads == 1) {
            EXPECT_EQ(stats.pooled_groups, 0);
        }
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(bitIdentical(runs[0][i], runs[1][i])) << "point " << i;
    }
}

TEST(BatchEvaluator, ThreadCountClampsToJobs)
{
    BatchEvaluatorOptions opts;
    opts.num_threads = 16;
    BatchEvaluator evaluator{Engine(batchArch()), nullptr, opts};
    EXPECT_EQ(evaluator.threadCount(3), 3);
    EXPECT_EQ(evaluator.threadCount(100), 16);
    EXPECT_EQ(evaluator.threadCount(0), 1);
}

} // namespace
} // namespace sparseloop
