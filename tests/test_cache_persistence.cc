/**
 * @file
 * Crash-recovery tests for the cache snapshot layer
 * (service/persistence.hh): exact save/load round trips, truncation
 * at arbitrary offsets, random byte corruption, header rejection —
 * and the payoff assertion, a warm-started cache serving hits where a
 * cold one misses. The invariant throughout: a loaded entry is either
 * bit-identical to one that was saved, or absent. Never garbage.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <unordered_map>

#include "mapper/mapspace.hh"
#include "service/persistence.hh"
#include "service/registry.hh"

namespace sparseloop {
namespace {

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(file)) << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(file)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(file)) << path;
}

/** A registry over the standard contexts with its cache populated by
 *  real evaluations (sampled mappings per context) and its warm-start
 *  pool seeded with elites. */
struct PopulatedService
{
    std::shared_ptr<ServiceRegistry> registry;
    /** The mappings evaluated per context name (replayable). */
    std::vector<std::pair<std::string, std::vector<Mapping>>> evaluated;

    explicit PopulatedService(int mappings_per_context = 6)
        : registry(std::make_shared<ServiceRegistry>())
    {
        for (ServiceContextSpec &spec : standardServiceContexts(16, 16, 16)) {
            registry->addContext(std::move(spec));
        }
        for (const std::string &name : registry->names()) {
            const ServiceRegistry::Context *ctx = registry->find(name);
            MapSpace space(ctx->spec.workload, ctx->spec.arch);
            std::vector<Mapping> mappings{ctx->spec.canonical};
            for (int s = 1; s < mappings_per_context; ++s) {
                mappings.push_back(
                    space.sampleMapping(static_cast<std::uint64_t>(s)));
            }
            evaluate(name, mappings);
            evaluated.emplace_back(name, std::move(mappings));
        }
        std::mt19937_64 rng(0xE117E);
        for (const auto &[name, mappings] : evaluated) {
            for (const Mapping &m : mappings) {
                MetricVector metrics;
                for (double &v : metrics.values) {
                    v = std::generate_canonical<double, 53>(rng);
                }
                registry->warmStart().record(m, metrics, metrics.values[0]);
            }
        }
    }

    std::vector<EvalResult>
    evaluate(const std::string &name, const std::vector<Mapping> &mappings)
    {
        const ServiceRegistry::Context *ctx = registry->find(name);
        std::vector<const Mapping *> ptrs;
        for (const Mapping &m : mappings) {
            ptrs.push_back(&m);
        }
        return ctx->evaluator->evaluateMappings(
            ctx->spec.workload, ptrs, ctx->spec.safs, nullptr);
    }
};

/** Index the exported entries of a cache by key hash for subset
 *  checks (hash collisions would fail the inner key comparison). */
struct ExportedView
{
    std::unordered_map<std::uint64_t, EvalCache::ResultEntry> results;
    std::unordered_map<std::uint64_t, EvalCache::DenseEntry> denses;

    explicit ExportedView(const EvalCache &cache)
    {
        for (EvalCache::ResultEntry &e : cache.exportResults()) {
            results.emplace(e.hash, std::move(e));
        }
        for (EvalCache::DenseEntry &e : cache.exportDenses()) {
            denses.emplace(e.hash, std::move(e));
        }
    }
};

/** Every entry of @p loaded must be bit-identical to one in
 *  @p original — the verified-subset invariant. */
void
expectVerifiedSubset(const EvalCache &loaded_cache,
                     const ExportedView &original)
{
    for (const EvalCache::ResultEntry &e : loaded_cache.exportResults()) {
        auto it = original.results.find(e.hash);
        ASSERT_NE(original.results.end(), it)
            << "loaded a result entry that was never saved";
        EXPECT_EQ(it->second.key, e.key);
        EXPECT_TRUE(bitIdentical(*it->second.result, *e.result));
    }
    for (const EvalCache::DenseEntry &e : loaded_cache.exportDenses()) {
        auto it = original.denses.find(e.hash);
        ASSERT_NE(original.denses.end(), it)
            << "loaded a dense entry that was never saved";
        EXPECT_EQ(it->second.key, e.key);
        EXPECT_EQ(*it->second.dense, *e.dense);
    }
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

TEST(CachePersistence, SaveLoadRoundTripsEveryEntry)
{
    PopulatedService service;
    // Single-point evaluations that miss both levels store their dense
    // entry as an alias of the result's `dense` member, like the
    // batch's one-point groups; the snapshot must round-trip them too.
    {
        const ServiceRegistry::Context *ctx =
            service.registry->find(service.evaluated.front().first);
        const Engine &engine = ctx->evaluator->engine();
        EvalCache &cache = service.registry->cache();
        MapSpace space(ctx->spec.workload, ctx->spec.arch);
        int cold = 0;
        for (std::uint64_t s = 100; s < 104; ++s) {
            Mapping m = space.sampleMapping(s);
            EvalKey key =
                EvalKey::of(engine, ctx->spec.workload, m, ctx->spec.safs);
            if (cache.findResult(key)) {
                continue;  // a repeat draw: not a double miss
            }
            evaluateCached(engine, cache, ctx->spec.workload, m,
                           ctx->spec.safs);
            ++cold;
            auto result = cache.findResult(key);
            ASSERT_TRUE(result);
            EXPECT_EQ(cache.findDense(key.densePrefix()).get(),
                      &result->dense);
        }
        EXPECT_GT(cold, 0);
    }
    const std::string path = tempPath("roundtrip.snap");
    SnapshotStats saved = saveSnapshot(path, service.registry->cache(),
                                       &service.registry->warmStart());
    EXPECT_GT(saved.result_entries, 0u);
    EXPECT_GT(saved.dense_entries, 0u);
    EXPECT_GT(saved.elites, 0u);

    EvalCache loaded_cache;
    WarmStartPool loaded_pool(service.registry->warmStart().capacity());
    SnapshotStats loaded = loadSnapshot(path, loaded_cache, &loaded_pool);
    EXPECT_TRUE(loaded.error.empty()) << loaded.error;
    EXPECT_FALSE(loaded.truncated);
    EXPECT_EQ(saved.result_entries, loaded.result_entries);
    EXPECT_EQ(saved.dense_entries, loaded.dense_entries);
    EXPECT_EQ(saved.elites, loaded.elites);

    // Not just a subset: counts match above, so equality both ways.
    ExportedView original(service.registry->cache());
    expectVerifiedSubset(loaded_cache, original);
    EXPECT_EQ(original.results.size(),
              loaded_cache.exportResults().size());
    EXPECT_EQ(original.denses.size(), loaded_cache.exportDenses().size());

    // Elites restore in retention order with exact payloads.
    std::vector<WarmStartPool::Elite> want =
        service.registry->warmStart().exportElites();
    std::vector<WarmStartPool::Elite> got = loaded_pool.exportElites();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].objective, got[i].objective);
        EXPECT_EQ(want[i].metrics, got[i].metrics);
        EXPECT_EQ(want[i].mapping, got[i].mapping);
    }
    std::remove(path.c_str());
}

TEST(CachePersistence, MissingFileIsACleanColdStart)
{
    EvalCache cache;
    SnapshotStats stats =
        loadSnapshot(tempPath("never-written.snap"), cache, nullptr);
    EXPECT_TRUE(stats.error.empty()) << stats.error;
    EXPECT_EQ(0u, stats.totalEntries());
    EXPECT_EQ(0u, cache.stats().result_entries);
}

TEST(CachePersistence, HeaderCorruptionRejectsTheWholeFile)
{
    PopulatedService service;
    const std::string path = tempPath("header.snap");
    saveSnapshot(path, service.registry->cache(),
                 &service.registry->warmStart());
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 20u);

    // Corrupt each header byte in turn: magic (0-7), version (8-11),
    // endianness sentinel (12-19). Nothing may survive.
    for (std::size_t at : {0u, 5u, 8u, 12u, 19u}) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[at] ^= 0xFF;
        writeFileBytes(path, corrupt);
        EvalCache cache;
        WarmStartPool pool;
        SnapshotStats stats = loadSnapshot(path, cache, &pool);
        EXPECT_FALSE(stats.error.empty()) << "byte " << at;
        EXPECT_EQ(0u, stats.totalEntries()) << "byte " << at;
        EXPECT_EQ(0u, cache.stats().result_entries) << "byte " << at;
        EXPECT_EQ(0u, pool.size()) << "byte " << at;
    }
    std::remove(path.c_str());
}

TEST(CachePersistence, TruncationAtAnyOffsetKeepsOnlyVerifiedEntries)
{
    PopulatedService service;
    const std::string path = tempPath("truncate.snap");
    SnapshotStats saved = saveSnapshot(path, service.registry->cache(),
                                       &service.registry->warmStart());
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ExportedView original(service.registry->cache());

    // Sweep cuts across the whole file (step chosen to land mid-header,
    // mid-record, and on record boundaries), plus the edges.
    std::vector<std::size_t> cuts = {0, 1, bytes.size() - 1};
    for (std::size_t cut = 7; cut < bytes.size(); cut += 211) {
        cuts.push_back(cut);
    }
    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
        writeFileBytes(path, truncated);
        EvalCache cache;
        WarmStartPool pool;
        SnapshotStats stats = loadSnapshot(path, cache, &pool);
        // A cut before the end marker must be flagged, either as a
        // whole-file rejection (header cuts) or a truncated tail.
        EXPECT_TRUE(stats.truncated || !stats.error.empty())
            << "cut at " << cut << " of " << bytes.size();
        EXPECT_LE(stats.totalEntries(), saved.totalEntries());
        expectVerifiedSubset(cache, original);
    }
    std::remove(path.c_str());
}

TEST(CachePersistence, RandomByteFlipsNeverServeCorruptEntries)
{
    PopulatedService service;
    const std::string path = tempPath("bitflip.snap");
    saveSnapshot(path, service.registry->cache(),
                 &service.registry->warmStart());
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ExportedView original(service.registry->cache());

    std::mt19937_64 rng(0xF11B5);  // seeded: reproducible trials
    std::uniform_int_distribution<std::size_t> offset(0, bytes.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int trial = 0; trial < 64; ++trial) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[offset(rng)] ^=
            static_cast<std::uint8_t>(1u << bit(rng));
        writeFileBytes(path, corrupt);
        EvalCache cache;
        WarmStartPool pool;
        loadSnapshot(path, cache, &pool);  // must not crash or throw
        // Whatever survived the checksums must be exactly what was
        // saved — a flipped payload byte may cost entries, never
        // corrupt them.
        expectVerifiedSubset(cache, original);
    }
    std::remove(path.c_str());
}

TEST(CachePersistence, TrailingGarbageAfterCleanEndIsFlagged)
{
    PopulatedService service;
    const std::string path = tempPath("trailing.snap");
    saveSnapshot(path, service.registry->cache(), nullptr);
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes.push_back(0xAB);
    writeFileBytes(path, bytes);

    EvalCache cache;
    SnapshotStats stats = loadSnapshot(path, cache, nullptr);
    EXPECT_TRUE(stats.truncated || !stats.error.empty());
    // The verified prefix (everything before the garbage) still loads.
    EXPECT_GT(stats.totalEntries(), 0u);
    std::remove(path.c_str());
}

TEST(CachePersistence, WarmRestartServesHitsWhereColdMisses)
{
    PopulatedService service;
    const std::string path = tempPath("warm.snap");
    saveSnapshot(path, service.registry->cache(),
                 &service.registry->warmStart());

    // The original (cold) daemon paid a miss for every unique point.
    EvalCacheStats cold = service.registry->cache().stats();
    EXPECT_GT(cold.result_misses, 0);
    EXPECT_LT(cold.resultHitRate(), 1.0);

    // Warm daemon: same contexts, cache restored from the snapshot.
    // Replaying the exact workload hits on every point.
    auto warm = std::make_shared<ServiceRegistry>();
    for (ServiceContextSpec &spec : standardServiceContexts(16, 16, 16)) {
        warm->addContext(std::move(spec));
    }
    SnapshotStats restored =
        loadSnapshot(path, warm->cache(), &warm->warmStart());
    EXPECT_TRUE(restored.error.empty()) << restored.error;
    ASSERT_GT(restored.totalEntries(), 0u);

    std::int64_t points = 0;
    for (const auto &[name, mappings] : service.evaluated) {
        const ServiceRegistry::Context *ctx = warm->find(name);
        std::vector<const Mapping *> ptrs;
        for (const Mapping &m : mappings) {
            ptrs.push_back(&m);
        }
        std::vector<EvalResult> replay = ctx->evaluator->evaluateMappings(
            ctx->spec.workload, ptrs, ctx->spec.safs, nullptr);
        // Replayed results are bit-identical to the original run's.
        std::vector<EvalResult> first =
            service.evaluate(name, mappings);
        ASSERT_EQ(first.size(), replay.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            EXPECT_TRUE(bitIdentical(first[i], replay[i]));
        }
        points += static_cast<std::int64_t>(mappings.size());
    }
    // Every replayed point is served from the restored cache: nonzero
    // hits (at least one unique point per context), zero misses, so
    // the warm hit rate is exactly 1 where the cold one was not.
    EvalCacheStats stats = warm->cache().stats();
    ASSERT_GT(points, 0);
    EXPECT_GT(stats.result_hits, 0);
    EXPECT_EQ(0, stats.result_misses);
    EXPECT_EQ(1.0, stats.resultHitRate());
    EXPECT_EQ(service.registry->warmStart().size(),
              warm->warmStart().size());
    std::remove(path.c_str());
}

} // namespace
} // namespace sparseloop
