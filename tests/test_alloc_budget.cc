/**
 * @file
 * Heap-allocation budgets of the search hot paths, counted by
 * replacement global `operator new`s (plain and aligned): building a
 * `MapSpace`, a 1-thread default annealing search of ResNet-50 conv1
 * on SCNN and on Eyeriss V2 PE, and each layer of a candidate on its
 * own: an annealing move plus its mapping rebuild, a cold
 * `Engine::evaluate`, and the batch and cache layers around it.
 * The whole-search budget catches a per-candidate allocation creeping
 * back anywhere; the per-layer ones name the layer. Each leaves some
 * headroom over the measured count.
 *
 * Not run under the sanitizers, whose runtimes replace the allocator.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <unordered_set>

#include <gtest/gtest.h>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "mapper/mapper.hh"
#include "model/batch_evaluator.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocations{0};

/** Counts one allocation and returns @p size bytes at @p align. */
void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    size = size == 0 ? 1 : size;
    void *p = nullptr;
    if (align == 0) {
        p = std::malloc(size);
    } else {
        // aligned_alloc wants a size that is a multiple of the
        // alignment.
        align = std::max(align, sizeof(void *));
        p = std::aligned_alloc(align, (size + align - 1) / align * align);
    }
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

} // namespace

// Every replaceable allocating form, including the aligned ones that
// SmallVector uses when it spills to the heap; the nothrow forms call
// these.
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace sparseloop {
namespace {

/** Heap allocations made while @p body runs. */
template <typename Body>
std::int64_t
allocationsDuring(Body &&body)
{
    g_allocations.store(0);
    g_counting.store(true);
    body();
    g_counting.store(false);
    return g_allocations.load();
}

/** ResNet-50 conv1 on one of the two designs the benchmark searches. */
struct Conv1
{
    explicit Conv1(apps::DesignPoint (*build)(const Workload &))
        : design(build(workload))
    {}
    Workload workload = makeConv(apps::resnet50RepresentativeLayers()[0]);
    apps::DesignPoint design;
};

/** Up to @p count distinct mappings along a seeded annealing-style
 *  random walk through @p space (built before any counting). */
std::vector<Mapping>
walkMappings(const MapSpace &space, std::size_t count)
{
    std::vector<Mapping> out;
    std::unordered_set<std::uint64_t> seen;
    std::mt19937_64 rng(11);
    MapSpace::Point point = space.samplePoint(3);
    MapSpace::Point next;
    for (std::size_t step = 0; out.size() < count && step < 20 * count;
         ++step) {
        if (!space.randomNeighborInto(point, rng, next)) {
            break;
        }
        std::swap(point, next);
        Mapping m = space.materialize(point);
        if (seen.insert(m.signature()).second) {
            out.push_back(std::move(m));
        }
    }
    return out;
}

MapSpace
spaceOf(const Conv1 &d)
{
    return MapSpace(d.workload, d.design.arch, MapspaceConstraints{},
                    MapSpaceOptions{});
}

TEST(AllocBudget, MapSpaceConstructionPerTiling)
{
    Conv1 d(apps::buildScnn);
    std::unique_ptr<MapSpace> space;
    std::int64_t allocs = allocationsDuring([&] {
        space = std::make_unique<MapSpace>(d.workload, d.design.arch,
                                           MapspaceConstraints{},
                                           MapSpaceOptions{});
    });
    ASSERT_TRUE(space->size().exact);
    const double per_tiling = static_cast<double>(allocs) /
                              static_cast<double>(space->tilingCount());
    std::printf("mapspace: %lld allocations over %lld tilings "
                "(%.2f per tiling)\n",
                static_cast<long long>(allocs),
                static_cast<long long>(space->tilingCount()), per_tiling);
    EXPECT_LE(per_tiling, 6.0);
}

/** The two searches `search-cold` runs most of, one per design. */
class AllocBudgetDesign
    : public ::testing::TestWithParam<apps::DesignPoint (*)(
          const Workload &)>
{};

TEST_P(AllocBudgetDesign, AnnealingSearchPerCandidate)
{
    Conv1 d(GetParam());
    MapperOptions mo;
    mo.strategy = SearchStrategyKind::Annealing;
    Mapper mapper(d.workload, d.design.arch, d.design.safs, mo);
    MapperResult r;
    std::int64_t allocs =
        allocationsDuring([&] { r = mapper.searchWithThreads(1); });
    ASSERT_TRUE(r.found);
    ASSERT_GT(r.candidates_evaluated, 0);
    const double per_candidate =
        static_cast<double>(allocs) /
        static_cast<double>(r.candidates_evaluated);
    std::printf("search on %s: %lld allocations over %lld candidates "
                "(%.2f per candidate)\n",
                d.design.name.c_str(), static_cast<long long>(allocs),
                static_cast<long long>(r.candidates_evaluated),
                per_candidate);
    EXPECT_LE(per_candidate, 8.0);
}

TEST_P(AllocBudgetDesign, NeighborAndMaterializePerMove)
{
    // The mapper layer of a candidate: one annealing move and the
    // rebuild of its mapping, both into kept buffers.
    Conv1 d(GetParam());
    MapSpace space = spaceOf(d);
    std::mt19937_64 rng(5);
    MapSpace::Point point = space.samplePoint(1);
    MapSpace::Point next;
    Mapping mapping;
    space.materializeInto(point, mapping);
    constexpr int kMoves = 2000;
    int moves = 0;
    std::int64_t allocs = allocationsDuring([&] {
        for (; moves < kMoves; ++moves) {
            if (!space.randomNeighborInto(point, rng, next)) {
                break;
            }
            std::swap(point, next);
            space.materializeInto(point, mapping);
        }
    });
    ASSERT_EQ(moves, kMoves);
    const double per_move =
        static_cast<double>(allocs) / static_cast<double>(moves);
    std::printf("neighbor + materialize on %s: %.3f allocations per "
                "move\n",
                d.design.name.c_str(), per_move);
    // Only a mapping level that outgrows every earlier loop count
    // allocates.
    EXPECT_LE(per_move, 0.05);
}

TEST_P(AllocBudgetDesign, ColdEvaluateAndBatchPerPoint)
{
    Conv1 d(GetParam());
    MapSpace space = spaceOf(d);
    const std::vector<Mapping> mappings = walkMappings(space, 400);
    ASSERT_GE(mappings.size(), 200u);
    Engine engine(d.design.arch);

    // Steps 1-3 of one cold point: the result's own traffic and level
    // tables, nothing else.
    std::int64_t engine_allocs = allocationsDuring([&] {
        for (const Mapping &m : mappings) {
            EvalResult r = engine.evaluate(d.workload, m, d.design.safs);
            (void)r;
        }
    });
    const double per_eval = static_cast<double>(engine_allocs) /
                            static_cast<double>(mappings.size());

    // The same points in batches of 8 through a private cache: what
    // the batch and cache layers add on top of the engine (the shared
    // result and one node per cache level).
    BatchEvaluatorOptions bopts;
    bopts.num_threads = 1;
    BatchEvaluator evaluator(engine, nullptr, bopts);
    std::vector<EvalPoint> points;
    std::vector<std::shared_ptr<const EvalResult>> results;
    results.reserve(8);
    points.reserve(8);
    std::vector<EvalPoint> warm{{&d.workload, &mappings[0],
                                 &d.design.safs}};
    evaluator.evaluateSharedInto(warm, results);  // scratch capacity
    const std::size_t n = mappings.size() - 1;
    std::int64_t batch_allocs = allocationsDuring([&] {
        for (std::size_t i = 1; i < mappings.size(); i += 8) {
            points.clear();
            for (std::size_t j = i; j < std::min(i + 8, mappings.size());
                 ++j) {
                points.push_back(
                    {&d.workload, &mappings[j], &d.design.safs});
            }
            evaluator.evaluateSharedInto(points, results);
        }
    });
    const double batch_layer =
        static_cast<double>(batch_allocs) / static_cast<double>(n) -
        per_eval;
    std::printf("on %s: %.2f allocations per cold Engine::evaluate, "
                "%.2f more per batched and cached point\n",
                d.design.name.c_str(), per_eval, batch_layer);
    EXPECT_LE(per_eval, 6.0);
    EXPECT_LE(batch_layer, 3.5);
}

INSTANTIATE_TEST_SUITE_P(Designs, AllocBudgetDesign,
                         ::testing::Values(&apps::buildScnn,
                                           &apps::buildEyerissV2Pe));

} // namespace
} // namespace sparseloop
