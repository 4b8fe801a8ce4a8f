/**
 * @file
 * Heap-allocation budgets of the search hot paths, counted by
 * replacement global `operator new`s (plain and aligned): building a
 * `MapSpace` and running a 1-thread default annealing search of
 * ResNet-50 conv1 on SCNN.
 * The budgets catch a per-tiling or per-candidate allocation creeping
 * back into the mapspace, the batch layer or the mapper driver; each
 * one leaves some headroom over the measured count.
 *
 * Not run under the sanitizers, whose runtimes replace the allocator.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "mapper/mapper.hh"

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

struct Conv1OnScnn
{
    Workload workload = makeConv(apps::resnet50RepresentativeLayers()[0]);
    apps::DesignPoint design = apps::buildScnn(workload);
};

TEST(AllocBudget, MapSpaceConstructionPerTiling)
{
    Conv1OnScnn d;
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

TEST(AllocBudget, AnnealingSearchPerCandidate)
{
    Conv1OnScnn d;
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
    std::printf("search: %lld allocations over %lld candidates "
                "(%.2f per candidate)\n",
                static_cast<long long>(allocs),
                static_cast<long long>(r.candidates_evaluated),
                per_candidate);
    EXPECT_LE(per_candidate, 45.0);
}

} // namespace
} // namespace sparseloop
