/**
 * @file
 * Sparse modeling step implementation.
 */

#include "sparse/sparse_analysis.hh"

#include <algorithm>

#include <random>

#include "common/arena.hh"
#include "common/logging.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"

namespace sparseloop {

namespace {

/**
 * The dense stand-in model for format analysis of a tensor that has
 * no density model: `makeUniformDensity(volume, 1.0)`. Each thread
 * keeps the models of its last few tensor volumes, so the engine
 * builds one per (thread, volume) rather than one per evaluation.
 */
const DensityModelPtr &
denseFallback(std::int64_t volume)
{
    struct Entry
    {
        std::int64_t volume = 0;
        DensityModelPtr model;
    };
    constexpr std::size_t kEntries = 8;
    thread_local Entry table[kEntries];
    Entry &e = table[static_cast<std::uint64_t>(volume) % kEntries];
    if (!e.model || e.volume != volume) {
        e.volume = volume;
        e.model = makeUniformDensity(volume, 1.0);
    }
    return e.model;
}

} // namespace

SparseAnalysis::SparseAnalysis(const Workload &workload,
                               const Architecture &arch,
                               const Mapping &mapping,
                               const SafSpec &safs)
    : workload_(workload), arch_(arch), mapping_(mapping), safs_(safs),
      nest_(workload, arch, mapping)
{
    for (const auto &saf : safs_.intersections) {
        if (saf.target < 0 || saf.target >= workload_.tensorCount()) {
            SL_FATAL("intersection SAF targets unknown tensor ",
                     saf.target);
        }
        if (saf.level < 0 || saf.level >= arch_.levelCount()) {
            SL_FATAL("intersection SAF at unknown level ", saf.level);
        }
        if (saf.leaders.empty()) {
            SL_FATAL("intersection SAF needs at least one leader");
        }
    }
    for (const auto &f : safs_.formats) {
        if (f.tensor < 0 || f.tensor >= workload_.tensorCount() ||
            f.level < 0 || f.level >= arch_.levelCount()) {
            SL_FATAL("format SAF references unknown tensor or level");
        }
    }
}

double
SparseAnalysis::density(int t) const
{
    return workload_.tensor(t).densityValue();
}

int
SparseAnalysis::safBoundary(const IntersectionSaf &saf) const
{
    auto keeps = nest_.keepLevels(saf.target);
    for (int k : keeps) {
        if (k > saf.level) {
            return k;
        }
    }
    return mapping_.levelCount();
}

std::vector<std::int64_t>
SparseAnalysis::leaderRegionDimTiles(const IntersectionSaf &saf) const
{
    int b = safBoundary(saf);
    std::vector<std::int64_t> dim_tiles;
    if (b < mapping_.levelCount()) {
        dim_tiles = mapping_.dimTilesAtLevel(workload_, b);
    } else {
        dim_tiles.assign(workload_.dimCount(), 1);
    }
    // Extend by the follower datum's reuse region: the maximal
    // innermost run of loops irrelevant to the follower above the
    // delivery boundary (Fig. 10).
    bool stopped = false;
    for (int l = std::min(b, mapping_.levelCount()); l-- > 0 && !stopped;) {
        const auto &loops = mapping_.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            if (loop.bound == 1) {
                continue;  // transparent: never advances anything
            }
            if (workload_.dimRelevant(saf.target, loop.dim)) {
                stopped = true;
                break;
            }
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    return dim_tiles;
}

double
SparseAnalysis::eliminationProbability(const IntersectionSaf &saf) const
{
    auto dim_tiles = leaderRegionDimTiles(saf);
    double p_keep = 1.0;
    for (int leader : saf.leaders) {
        const auto &ds = workload_.tensor(leader);
        if (!ds.density) {
            // Dense leader tiles are never empty.
            continue;
        }
        Shape extents = workload_.tensorTileExtents(leader, dim_tiles);
        double p_empty = ds.density->probEmptyShaped(extents);
        p_keep *= (1.0 - p_empty);
    }
    return 1.0 - p_keep;
}

double
SparseAnalysis::eliminationProbabilityScratch(
        const IntersectionSaf &saf, DimTiles &dim_tiles) const
{
    // safBoundary without the keepLevels() vector: the first keeping
    // level above the SAF (level 0 always keeps but can never be
    // above it, since saf.level >= 0).
    int b = mapping_.levelCount();
    for (int l = saf.level + 1; l < mapping_.levelCount(); ++l) {
        if (mapping_.level(l).keeps(saf.target)) {
            b = l;
            break;
        }
    }
    // leaderRegionDimTiles with the dim-tile vector reused across
    // SAFs; the multiplication sequence matches dimTilesAtLevel
    // followed by the reuse-region extension exactly.
    dim_tiles.assign(workload_.dimCount(), 1);
    for (int l = b; l < mapping_.levelCount(); ++l) {
        for (const auto &loop : mapping_.level(l).loops) {
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    bool stopped = false;
    for (int l = std::min(b, mapping_.levelCount()); l-- > 0 && !stopped;) {
        const auto &loops = mapping_.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            if (loop.bound == 1) {
                continue;
            }
            if (workload_.dimRelevant(saf.target, loop.dim)) {
                stopped = true;
                break;
            }
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    double p_keep = 1.0;
    for (int leader : saf.leaders) {
        const auto &ds = workload_.tensor(leader);
        if (!ds.density) {
            continue;
        }
        double p_empty;
        if (ds.density->coordinateDependent()) {
            Shape extents;
            workload_.tensorTileExtentsInto(leader, dim_tiles.data(),
                                            extents);
            p_empty = ds.density->probEmptyShaped(extents);
        } else {
            // A coordinate-independent model answers the shaped query
            // as probEmpty of the tile volume, which the memo serves.
            TileExtents extents;
            workload_.tensorTileExtentsInto(leader, dim_tiles.data(),
                                            extents);
            p_empty = probEmptyMemoized(*ds.density, volume(extents));
        }
        p_keep *= (1.0 - p_empty);
    }
    return 1.0 - p_keep;
}

double
SparseAnalysis::effectualFraction() const
{
    const int T = workload_.tensorCount();
    // Statistical default: independent operands.
    double marginal = 1.0;
    SmallVector<const ActualDataDensity *, 4> actual;
    actual.assign(static_cast<std::size_t>(T), nullptr);
    bool all_actual = true;
    bool any_sparse = false;
    for (int t = 0; t < T; ++t) {
        const auto &ds = workload_.tensor(t);
        if (ds.is_output) {
            continue;
        }
        marginal *= density(t);
        if (!ds.density) {
            continue;  // dense operand: always nonzero
        }
        any_sparse = true;
        actual[t] =
            dynamic_cast<const ActualDataDensity *>(ds.density.get());
        if (!actual[t]) {
            all_actual = false;
        }
    }
    if (!any_sparse || !all_actual) {
        return marginal;
    }
    // Joint intersection from the concrete tensors: exact enumeration
    // of the iteration space when affordable, seeded sampling above.
    std::int64_t total = workload_.denseComputeCount();
    constexpr std::int64_t kEnumerateLimit = 1 << 22;
    constexpr std::int64_t kSamples = 1 << 15;
    auto effectualAt = [&](const Point &p) {
        for (int t = 0; t < T; ++t) {
            if (workload_.tensor(t).is_output ||
                !workload_.tensor(t).density) {
                continue;
            }
            Point q = workload_.project(t, p);
            if (!actual[t]->data().isNonzero(q)) {
                return false;
            }
        }
        return true;
    };
    std::int64_t hits = 0;
    if (total <= kEnumerateLimit) {
        Shape bounds(workload_.dimCount());
        for (int d = 0; d < workload_.dimCount(); ++d) {
            bounds[d] = workload_.dims()[d].bound;
        }
        for (std::int64_t i = 0; i < total; ++i) {
            if (effectualAt(unflatten(i, bounds))) {
                ++hits;
            }
        }
        return static_cast<double>(hits) / static_cast<double>(total);
    }
    std::mt19937_64 rng(0x5EED5EED);
    Point p(workload_.dimCount());
    for (std::int64_t s = 0; s < kSamples; ++s) {
        for (int d = 0; d < workload_.dimCount(); ++d) {
            std::uniform_int_distribution<std::int64_t> pick(
                0, workload_.dims()[d].bound - 1);
            p[d] = pick(rng);
        }
        if (effectualAt(p)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(kSamples);
}

SparseTraffic
SparseAnalysis::analyze(const DenseTraffic &dense) const
{
    const int S = mapping_.levelCount();
    const int T = workload_.tensorCount();

    SparseTraffic out;
    out.levels.assign(S, T);
    out.instances = dense.instances;
    out.compute_instances = dense.compute_instances;

    // Hoisted per-SAF invariants: the elimination probability depends
    // only on the workload, mapping, and density models — not on which
    // flow is being filtered — so compute it once per SAF instead of
    // once per (level, tensor, flow) filter call. Entries stay in
    // specification order; each filter below sorts its own filtered
    // subset exactly the way the per-call path did, so tie order (and
    // therefore every double) is unchanged.
    struct CachedSaf
    {
        int level;
        int target;
        SafKind kind;
        double p;
    };
    SmallVector<CachedSaf, 8> cached;
    {
        DimTiles dim_tiles_scratch;
        for (const auto &saf : safs_.intersections) {
            cached.push_back(
                {saf.level, saf.target, saf.kind,
                 eliminationProbabilityScratch(saf, dim_tiles_scratch)});
        }
    }

    // First-match format lookup grid (same semantics as formatAt).
    ArenaScope scope(evalScratchArena());
    const TensorFormat **fmt_grid =
        scope.arena().allocArray<const TensorFormat *>(
            static_cast<std::size_t>(S) * T);
    for (const auto &f : safs_.formats) {
        const TensorFormat *&slot =
            fmt_grid[static_cast<std::size_t>(f.level) * T + f.tensor];
        if (!slot) {
            slot = &f.format;
        }
    }

    // Fallback density models for format analysis of dense tensors,
    // one per tensor instead of one per (level, tensor), taken from
    // the per-thread table (see denseFallback): the model is a pure
    // function of its parameters, so sharing an instance yields
    // identical statistics. The pointers keep them alive should the
    // table replace one mid-analysis.
    SmallVector<DensityModelPtr, 4> fallback;
    fallback.resize(static_cast<std::size_t>(T));

    // ---- Compute action breakdown -------------------------------------
    double effectual_frac = effectualFraction();
    double remaining = 1.0;
    double comp_skipped = 0.0;
    double comp_gated = 0.0;
    {
        SmallVector<const CachedSaf *, 8> all;
        for (const CachedSaf &c : cached) {
            all.push_back(&c);
        }
        std::sort(all.begin(), all.end(),
                  [](const CachedSaf *a, const CachedSaf *b) {
                      return a->level < b->level;
                  });
        for (const auto *saf : all) {
            double elim = remaining * saf->p;
            if (saf->kind == SafKind::Skip) {
                comp_skipped += elim;
            } else {
                comp_gated += elim;
            }
            remaining -= elim;
        }
        // Eliminations can only remove ineffectual computes: clamp and
        // hand back any over-elimination proportionally.
        if (remaining < effectual_frac) {
            double excess = effectual_frac - remaining;
            double elim_total = comp_skipped + comp_gated;
            if (elim_total > 0.0) {
                comp_skipped -= excess * comp_skipped / elim_total;
                comp_gated -= excess * comp_gated / elim_total;
            }
            remaining = effectual_frac;
        }
        // Remaining ineffectual computes go to the compute SAF.
        double ineff = std::max(0.0, remaining - effectual_frac);
        if (!safs_.compute.empty() && ineff > 0.0) {
            if (safs_.compute.front().kind == SafKind::Skip) {
                comp_skipped += ineff;
            } else {
                comp_gated += ineff;
            }
            remaining -= ineff;
        }
    }
    out.computes.actual = dense.computes * remaining;
    out.computes.gated = dense.computes * comp_gated;
    out.computes.skipped = dense.computes * comp_skipped;
    out.effectual_computes = dense.computes * effectual_frac;

    double compute_total_frac = remaining + comp_gated + comp_skipped;

    // Split a dense count into (actual, gated, skipped) by the SAFs
    // targeting tensor t above boundary level `boundary`, applied
    // outer-first so eliminations compose the way propagation does
    // (Sec. 5.3.4). Allocation-free over the cached SAF table: the
    // filtered subset preserves specification order, and std::sort
    // with a level comparator orders it the same way on every call.
    auto filter = [&](int t, int boundary, double base) {
        SmallVector<const CachedSaf *, 8> applicable;
        for (const CachedSaf &c : cached) {
            if (c.target == t && c.level < boundary) {
                applicable.push_back(&c);
            }
        }
        std::sort(applicable.begin(), applicable.end(),
                  [](const CachedSaf *a, const CachedSaf *b) {
                      return a->level < b->level;
                  });
        ActionBreakdown b;
        double rem = base;
        for (const auto *saf : applicable) {
            double elim = rem * saf->p;
            if (saf->kind == SafKind::Skip) {
                b.skipped += elim;
            } else {
                b.gated += elim;
            }
            rem -= elim;
        }
        b.actual = rem;
        return b;
    };

    // Innermost keeping level per tensor (outputs only use it, but the
    // scan is trivial); matches keepLevels(t).back().
    SmallVector<int, 8> inner_keep;
    inner_keep.assign(T, 0);
    for (int t = 0; t < T; ++t) {
        for (int l = 1; l < S; ++l) {
            if (mapping_.level(l).keeps(t)) {
                inner_keep[t] = l;
            }
        }
    }

    // ---- Per-level traffic --------------------------------------------
    // tileStatsPair computes the Expected and WorstCase estimates in
    // one rank sweep with bit-identical results to two tileStats()
    // calls.
    TileFormatStats stats;
    TileFormatStats worst;
    SmallVector<std::int64_t, 4> fmt_extents;
    for (int l = 0; l < S; ++l) {
        for (int t = 0; t < T; ++t) {
            const auto &d = dense.at(l, t);
            auto &s = out.levels[l][t];
            s.tile_dense_words = d.footprint;

            const TensorFormat *fmt =
                fmt_grid[static_cast<std::size_t>(l) * T + t];
            double data_ratio = 1.0;  // stored words per dense element
            double meta_ratio = 0.0;  // metadata words per dense element
            if (fmt) {
                const DensityModelPtr &tensor_model =
                    workload_.tensor(t).density;
                if (!tensor_model && !fallback[t]) {
                    fallback[t] = denseFallback(workload_.tensorVolume(t));
                }
                const DensityModel &model =
                    tensor_model ? *tensor_model : *fallback[t];
                fmt->flattenExtentsInto(d.tile_extents.data(),
                                        d.tile_extents.size(),
                                        fmt_extents);
                fmt->tileStatsPair(model, fmt_extents.data(),
                                   fmt_extents.size(), stats, worst);
                int wb = arch_.level(l).word_bits;
                if (d.kept) {
                    s.tile_data_words = stats.data_words;
                    s.tile_metadata_words = stats.metadataWords(wb);
                    s.tile_worst_words =
                        worst.data_words + worst.metadataWords(wb);
                }
                if (stats.dense_words > 0) {
                    data_ratio = stats.data_words /
                        static_cast<double>(stats.dense_words);
                    meta_ratio = stats.metadataWords(wb) /
                        static_cast<double>(stats.dense_words);
                }
            } else if (d.kept) {
                s.tile_data_words = d.footprint;
                s.tile_worst_words = d.footprint;
            }

            const bool is_output = workload_.tensor(t).is_output;
            if (!is_output) {
                // Reads out of this level cross boundary l+1 and
                // beyond; fills arrived across boundary l.
                s.reads = filter(t, l + 1, d.reads * data_ratio);
                s.fills = filter(t, l, d.fills * data_ratio);
                double read_actual_frac = s.reads.total() > 0.0
                    ? s.reads.actual / s.reads.total() : 1.0;
                double fill_actual_frac = s.fills.total() > 0.0
                    ? s.fills.actual / s.fills.total() : 1.0;
                s.meta_reads = d.reads * meta_ratio * read_actual_frac;
                s.meta_fills = d.fills * meta_ratio * fill_actual_frac;
            } else {
                // Output updates at the innermost keeping level follow
                // the compute breakdown; other levels keep their dense
                // flow (zeros still drain upward) modulo level-local
                // SAFs and compression.
                if (l == inner_keep[t] && compute_total_frac > 0.0) {
                    double total = d.updates * data_ratio;
                    s.updates.actual =
                        total * remaining / compute_total_frac;
                    s.updates.gated =
                        total * comp_gated / compute_total_frac;
                    s.updates.skipped =
                        total * comp_skipped / compute_total_frac;
                } else {
                    s.updates = filter(t, l + 1, d.updates * data_ratio);
                }
                // Accumulation reads mirror the updates' breakdown:
                // a gated update still spends the read-modify-write
                // cycle, a skipped one does not.
                double upd_total = s.updates.total();
                double acc_total = d.acc_reads * data_ratio;
                if (upd_total > 0.0) {
                    s.acc_reads.actual =
                        acc_total * s.updates.actual / upd_total;
                    s.acc_reads.gated =
                        acc_total * s.updates.gated / upd_total;
                    s.acc_reads.skipped =
                        acc_total * s.updates.skipped / upd_total;
                } else {
                    s.acc_reads.actual = acc_total;
                }
                double actual_frac = upd_total > 0.0
                    ? s.updates.actual / upd_total : 1.0;
                s.drains = filter(t, l + 1, d.drains * data_ratio);
                s.meta_updates = d.updates * meta_ratio * actual_frac;
            }
        }
    }
    return out;
}

} // namespace sparseloop
