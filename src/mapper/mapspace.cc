/**
 * @file
 * Mapspace IR implementation: constraint pruning, axis
 * materialization, exact size accounting, and the three access
 * patterns (seeded sampling, indexed enumeration, coordinate
 * neighborhoods).
 */

#include "mapper/mapspace.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

namespace {

/** Largest tiled-dimension set whose canonical orders are
 *  materialized; beyond it the level falls back to raw factorial
 *  enumeration (such spaces exceed the enumerable limit anyway). */
constexpr int kMaxCanonicalDims = 8;

int
countBits(std::uint64_t mask)
{
    int n = 0;
    for (; mask != 0; mask &= mask - 1) {
        ++n;
    }
    return n;
}

/** First duplicate value in a list, or -1 when all unique. */
int
firstDuplicate(const std::vector<int> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            if (values[i] == values[j]) {
                return values[i];
            }
        }
    }
    return -1;
}

void
validateIndexList(const std::vector<int> &values, int limit, int level,
                  const char *axis, const char *what)
{
    for (int v : values) {
        if (v < 0 || v >= limit) {
            SL_FATAL("level ", level, " constraint: ", axis,
                     " references ", what, " ", v,
                     " but valid indices are [0, ", limit, ")");
        }
    }
    int dup = firstDuplicate(values);
    if (dup >= 0) {
        SL_FATAL("level ", level, " constraint: ", axis, " lists ",
                 what, " ", dup, " more than once");
    }
}

/** Enumerate per-level factor vectors recursively over allowed
 *  levels (ascending), one divisor of the residual per level. */
void
enumerateSplits(const std::vector<int> &allowed, std::size_t pos,
                std::int64_t remaining, int level_count,
                std::vector<std::int64_t> &current,
                std::vector<std::vector<std::int64_t>> &out)
{
    if (pos == allowed.size()) {
        if (remaining == 1) {
            out.push_back(current);
        }
        return;
    }
    if (pos + 1 == allowed.size()) {
        // Last allowed level takes the whole residual.
        current[static_cast<std::size_t>(allowed[pos])] = remaining;
        out.push_back(current);
        current[static_cast<std::size_t>(allowed[pos])] = 1;
        return;
    }
    (void)level_count;
    for (std::int64_t f : math::divisors(remaining)) {
        current[static_cast<std::size_t>(allowed[pos])] = f;
        enumerateSplits(allowed, pos + 1, remaining / f, level_count,
                       current, out);
    }
    current[static_cast<std::size_t>(allowed[pos])] = 1;
}

} // namespace

void
validateConstraints(const Workload &workload, const Architecture &arch,
                    const MapspaceConstraints &constraints)
{
    if (constraints.levels.empty()) {
        return;
    }
    if (static_cast<int>(constraints.levels.size()) !=
        arch.levelCount()) {
        SL_FATAL("constraint count ", constraints.levels.size(),
                 " must match the level count ", arch.levelCount());
    }
    const int D = workload.dimCount();
    const int T = workload.tensorCount();
    for (std::size_t l = 0; l < constraints.levels.size(); ++l) {
        const LevelConstraint &con = constraints.levels[l];
        const int level = static_cast<int>(l);
        validateIndexList(con.loop_order, D, level, "loop_order",
                          "dimension");
        validateIndexList(con.spatial_dims, D, level, "spatial_dims",
                          "dimension");
        validateIndexList(con.keep, T, level, "keep", "tensor");
    }
}

MapSpace::MapSpace(const Workload &workload, const Architecture &arch,
                   MapspaceConstraints constraints,
                   MapSpaceOptions options)
    : workload_(workload), arch_(arch),
      constraints_(std::move(constraints)), options_(options)
{
    validateConstraints(workload_, arch_, constraints_);
    const int S = arch_.levelCount();
    const int D = workload_.dimCount();
    level_cons_.assign(static_cast<std::size_t>(S), LevelConstraint{});
    if (!constraints_.levels.empty()) {
        level_cons_ = constraints_.levels;
    }

    // Tiling axes: admissible levels and split counts per dimension.
    allowed_.resize(static_cast<std::size_t>(D));
    split_count_.resize(static_cast<std::size_t>(D), 1);
    splits_.resize(static_cast<std::size_t>(D));
    for (int d = 0; d < D; ++d) {
        for (int l = 0; l < S; ++l) {
            if (levelAllowsDim(l, d)) {
                allowed_[static_cast<std::size_t>(d)].push_back(l);
            }
        }
        const std::int64_t bound = workload_.dims()[d].bound;
        const auto &lvls = allowed_[static_cast<std::size_t>(d)];
        if (lvls.empty() && bound > 1) {
            SL_WARN("mapspace is empty: dimension ",
                    workload_.dims()[d].name, " (bound ", bound,
                    ") is excluded from every level's loop_order");
            empty_ = true;
            continue;
        }
        split_count_[static_cast<std::size_t>(d)] =
            math::orderedFactorizationCount(
                bound, static_cast<int>(lvls.size()));
        if (split_count_[static_cast<std::size_t>(d)] <=
            options_.max_splits_per_dim) {
            auto &out = splits_[static_cast<std::size_t>(d)];
            std::vector<std::int64_t> current(
                static_cast<std::size_t>(S), 1);
            if (lvls.empty()) {
                out.push_back(current);  // bound == 1: the empty split
            } else {
                enumerateSplits(lvls, 0, bound, S, current, out);
            }
            std::sort(out.begin(), out.end());
            SL_ASSERT(static_cast<std::int64_t>(out.size()) ==
                          split_count_[static_cast<std::size_t>(d)],
                      "split enumeration disagrees with the count");
        }
    }

    // Keep/bypass axes.
    const int T = workload_.tensorCount();
    keep_choices_.resize(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        auto &choices = keep_choices_[static_cast<std::size_t>(l)];
        const LevelConstraint &con =
            level_cons_[static_cast<std::size_t>(l)];
        if (!con.keep.empty()) {
            std::vector<bool> mask(static_cast<std::size_t>(T), false);
            for (int t : con.keep) {
                mask[static_cast<std::size_t>(t)] = true;
            }
            choices.push_back(std::move(mask));
        } else if (options_.explore_bypass && l > 0 && T <= 16) {
            // All masks; the all-keep mask is canonically the empty
            // vector (matching the sampler and Mapping::signature()).
            choices.emplace_back();
            for (std::uint32_t bits = 0;
                 bits + 1 < (1u << static_cast<unsigned>(T)); ++bits) {
                std::vector<bool> mask(static_cast<std::size_t>(T));
                for (int t = 0; t < T; ++t) {
                    mask[static_cast<std::size_t>(t)] =
                        (bits >> static_cast<unsigned>(t)) & 1u;
                }
                choices.push_back(std::move(mask));
            }
        } else {
            choices.emplace_back();  // keep-all
        }
    }

    // Symmetry classes: dimensions whose tensor-relevance signatures
    // are identical commute as adjacent loops (swapping them changes
    // no footprint, reuse multiplier, or multicast factor), so the
    // symmetry pass enumerates one canonical order per class run.
    dim_class_.assign(static_cast<std::size_t>(D), -1);
    {
        std::vector<std::vector<bool>> signatures;
        for (int d = 0; d < D; ++d) {
            std::vector<bool> sig(static_cast<std::size_t>(T));
            for (int t = 0; t < T; ++t) {
                sig[static_cast<std::size_t>(t)] =
                    workload_.dimRelevant(t, d);
            }
            auto it =
                std::find(signatures.begin(), signatures.end(), sig);
            if (it == signatures.end()) {
                signatures.push_back(sig);
                it = std::prev(signatures.end());
            }
            dim_class_[static_cast<std::size_t>(d)] =
                static_cast<int>(it - signatures.begin());
        }
    }

    // Levels whose keep axis is open. By construction an open level
    // offers every mask, which is what lets the joint keep axis
    // factorize per tensor in the dominance pass.
    for (int l = 0; l < S; ++l) {
        if (keep_choices_[static_cast<std::size_t>(l)].size() > 1) {
            keep_free_levels_.push_back(l);
        }
    }

    // Size accounting: exact (with enumeration prefix sums) when the
    // tiling cross-product is materialized and small enough, estimate
    // otherwise.
    std::int64_t tilings = 1;
    bool tilings_ok = !empty_;
    for (int d = 0; d < D && tilings_ok; ++d) {
        if (splits_[static_cast<std::size_t>(d)].empty()) {
            tilings_ok = false;
            break;
        }
        tilings = math::mulSat(
            tilings, split_count_[static_cast<std::size_t>(d)]);
    }
    tilings_ok = tilings_ok && tilings <= options_.max_tilings;

    if (empty_) {
        size_ = {0.0, true, 0};
        prune_stats_.exact = true;
        return;
    }
    if (tilings_ok) {
        std::int64_t total = 0;
        bool saturated = false;
        prune_stats_ = {};
        prune_stats_.exact = true;
        tiling_prefix_.reserve(static_cast<std::size_t>(tilings) + 1);
        tiling_prefix_.push_back(0);
        // Tiling t's coordinates are the mixed-radix digits of t
        // (dimension 0 fastest), stepped like an odometer.
        std::vector<std::size_t> tiling(static_cast<std::size_t>(D), 0);
        for (std::int64_t t = 0; t < tilings; ++t) {
            if (t > 0) {
                for (std::size_t d = 0;
                     ++tiling[d] ==
                     static_cast<std::size_t>(split_count_[d]);
                     ++d) {
                    tiling[d] = 0;
                }
            }
            const FactorGrid factors = tilingFactors(tiling.data());
            for (int l = 0; l < S; ++l) {
                if (!orderConstrained(l)) {
                    ensureCanonical(tiledMask(factors.row(l)));
                }
            }
            BlockCounts c = blockCounts(factors);
            bool cap_pruned = options_.prune_capacity_tilings &&
                              capacityPruned(factors);
            prune_stats_.raw_points += c.raw;
            prune_stats_.pruned_symmetry += c.raw - c.symmetry;
            prune_stats_.pruned_dominated_keeps += c.symmetry - c.pruned;
            if (cap_pruned) {
                prune_stats_.pruned_capacity_tilings += c.pruned;
            }
            std::int64_t block = cap_pruned ? 0 : c.block;
            // int64 saturation stops the enumeration prefix sums but
            // not the per-pass accounting, which runs in doubles.
            if (!saturated &&
                total >
                    std::numeric_limits<std::int64_t>::max() - block) {
                saturated = true;
            }
            if (!saturated) {
                total += block;
                tiling_prefix_.push_back(total);
            }
        }
        if (!saturated) {
            size_.points = static_cast<double>(total);
            size_.exact = true;
            size_.enumerable =
                total <= options_.max_enumerable_points ? total : -1;
        }
        if (saturated || size_.enumerable < 0) {
            tiling_prefix_.clear();
        }
        if (!saturated) {
            return;
        }
        // Saturated: fall through to the product-form size estimate,
        // keeping the (still-valid) double-accumulated pass counts.
    }

    // Product-form upper bound: every admissible dimension tiled at
    // every admissible level.
    double points = 1.0;
    for (int d = 0; d < D; ++d) {
        points *= static_cast<double>(
            split_count_[static_cast<std::size_t>(d)]);
    }
    for (int l = 0; l < S; ++l) {
        int dims_here = 0;
        int spatial_here = 0;
        for (int d = 0; d < D; ++d) {
            if (!levelAllowsDim(l, d) ||
                workload_.dims()[d].bound <= 1) {
                continue;
            }
            ++dims_here;
            const LevelConstraint &con =
                level_cons_[static_cast<std::size_t>(l)];
            bool spatial_ok = con.spatial_dims.empty() ||
                std::find(con.spatial_dims.begin(),
                          con.spatial_dims.end(),
                          d) != con.spatial_dims.end();
            if (spatial_ok && arch_.level(l).fanout > 1) {
                ++spatial_here;
            }
        }
        if (!orderConstrained(l)) {
            points *= static_cast<double>(math::factorial(dims_here));
        }
        points *= static_cast<double>(std::max(1, spatial_here));
        points *= static_cast<double>(
            keep_choices_[static_cast<std::size_t>(l)].size());
    }
    size_.points = points;
    size_.exact = false;
    size_.enumerable = -1;
    if (!prune_stats_.exact) {
        // Estimate path: only the raw total is known.
        prune_stats_.raw_points = points;
    }
}

bool
MapSpace::levelAllowsDim(int level, int dim) const
{
    const LevelConstraint &con =
        level_cons_[static_cast<std::size_t>(level)];
    return con.loop_order.empty() ||
        std::find(con.loop_order.begin(), con.loop_order.end(), dim) !=
            con.loop_order.end();
}

bool
MapSpace::orderConstrained(int level) const
{
    return !level_cons_[static_cast<std::size_t>(level)]
                .loop_order.empty();
}

bool
MapSpace::spatialCandidate(int level, int d, std::int64_t f) const
{
    const std::int64_t fanout = arch_.level(level).fanout;
    if (f <= 1 || f > fanout) {
        return false;
    }
    const LevelConstraint &con =
        level_cons_[static_cast<std::size_t>(level)];
    return con.spatial_dims.empty() ||
        std::find(con.spatial_dims.begin(), con.spatial_dims.end(), d) !=
            con.spatial_dims.end();
}

MapSpace::Candidates
MapSpace::spatialCandidates(int level, const std::int64_t *factors) const
{
    Candidates candidates;
    for (int d = 0; d < dimCount(); ++d) {
        if (spatialCandidate(level, d, factors[d])) {
            candidates.push_back(d);
        }
    }
    return candidates;
}

MapSpace::FactorGrid
MapSpace::tilingFactors(const std::size_t *tiling) const
{
    const int S = levelCount();
    const int D = dimCount();
    FactorGrid factors(S, D);
    for (int d = 0; d < D; ++d) {
        const auto &split =
            splits_[static_cast<std::size_t>(d)]
                   [tiling[static_cast<std::size_t>(d)]];
        for (int l = 0; l < S; ++l) {
            factors.at(l, d) = split[static_cast<std::size_t>(l)];
        }
    }
    return factors;
}

std::uint64_t
MapSpace::tiledMask(const std::int64_t *level_factors) const
{
    std::uint64_t mask = 0;
    for (int d = 0; d < dimCount(); ++d) {
        if (level_factors[d] > 1) {
            mask |= std::uint64_t{1} << static_cast<unsigned>(d);
        }
    }
    return mask;
}

bool
MapSpace::canonicalAt(int level, std::uint64_t mask) const
{
    return options_.prune_symmetry && !orderConstrained(level) &&
           countBits(mask) <= kMaxCanonicalDims;
}

void
MapSpace::ensureCanonical(std::uint64_t mask)
{
    if (countBits(mask) > kMaxCanonicalDims ||
        canon_.count(mask) != 0) {
        return;
    }
    std::vector<int> perm;
    for (int d = 0; d < dimCount(); ++d) {
        if ((mask >> static_cast<unsigned>(d)) & 1u) {
            perm.push_back(d);
        }
    }
    // Canonical = every adjacent pair of same-class dimensions is
    // ascending by dimension id. Each equivalence orbit (orders
    // reachable by commuting same-class neighbors) contains exactly
    // one such order, so filtering the full permutation list keeps one
    // traffic-identical representative per orbit. Counting must
    // enumerate, not divide by multinomials: classes need not form
    // contiguous runs in an order, so orbits have varying sizes.
    std::vector<std::vector<int>> orders;
    do {
        bool canonical = true;
        for (std::size_t i = 0; i + 1 < perm.size(); ++i) {
            if (dim_class_[static_cast<std::size_t>(perm[i])] ==
                    dim_class_[static_cast<std::size_t>(perm[i + 1])] &&
                perm[i] > perm[i + 1]) {
                canonical = false;
                break;
            }
        }
        if (canonical) {
            orders.push_back(perm);
        }
    } while (std::next_permutation(perm.begin(), perm.end()));
    canon_.emplace(mask, std::move(orders));
}

const std::vector<std::vector<int>> &
MapSpace::canonicalOrders(std::uint64_t mask) const
{
    auto it = canon_.find(mask);
    SL_ASSERT(it != canon_.end(),
              "canonical orders were not prebuilt for mask ", mask);
    return it->second;
}

SmallVector<std::uint64_t, 8>
MapSpace::relevantLevelMasks(const FactorGrid &factors) const
{
    const int T = workload_.tensorCount();
    SmallVector<std::uint64_t, 8> rel(static_cast<std::size_t>(T), 0);
    for (int l = 0; l < levelCount(); ++l) {
        const std::int64_t *lf = factors.row(l);
        for (int d = 0; d < dimCount(); ++d) {
            if (lf[d] <= 1) {
                continue;
            }
            for (int t = 0; t < T; ++t) {
                if (workload_.dimRelevant(t, d)) {
                    rel[static_cast<std::size_t>(t)] |=
                        std::uint64_t{1} << static_cast<unsigned>(l);
                }
            }
        }
    }
    return rel;
}

SmallVector<std::uint32_t, 16>
MapSpace::keepCombos(int t, std::uint64_t relevant_mask) const
{
    const int S = levelCount();
    const int F = static_cast<int>(keep_free_levels_.size());
    // Keeps forced regardless of the free bits: the backing store and
    // every fixed level whose single mask keeps the tensor.
    std::uint64_t fixed = 1;
    for (int l = 1; l < S; ++l) {
        const auto &ch = keep_choices_[static_cast<std::size_t>(l)];
        if (ch.size() == 1 &&
            (ch.front().empty() ||
             ch.front()[static_cast<std::size_t>(t)])) {
            fixed |= std::uint64_t{1} << static_cast<unsigned>(l);
        }
    }
    SmallVector<std::uint32_t, 16> combos;
    for (std::uint32_t bits = 0;
         bits < (1u << static_cast<unsigned>(F)); ++bits) {
        std::uint64_t col = fixed;
        for (int i = 0; i < F; ++i) {
            if ((bits >> static_cast<unsigned>(i)) & 1u) {
                col |= std::uint64_t{1}
                    << static_cast<unsigned>(
                           keep_free_levels_[static_cast<std::size_t>(
                               i)]);
            }
        }
        // A free keep at level l is dominated when some inner keeping
        // level b exists and no loop at levels [l, b) touches the
        // tensor: the kept tile then provides zero reuse (fills ==
        // reads), so bypassing it saves accesses and capacity on every
        // metric. The innermost keep (no b) is never dominated.
        bool dominated = false;
        if (options_.prune_dominated_keeps) {
            for (int i = 0; i < F && !dominated; ++i) {
                if (!((bits >> static_cast<unsigned>(i)) & 1u)) {
                    continue;
                }
                int l =
                    keep_free_levels_[static_cast<std::size_t>(i)];
                int b = -1;
                for (int lb = l + 1; lb < S; ++lb) {
                    if ((col >> static_cast<unsigned>(lb)) & 1u) {
                        b = lb;
                        break;
                    }
                }
                if (b < 0) {
                    continue;
                }
                std::uint64_t between =
                    (std::uint64_t{1} << static_cast<unsigned>(b)) -
                    (std::uint64_t{1} << static_cast<unsigned>(l));
                dominated = (relevant_mask & between) == 0;
            }
        }
        if (!dominated) {
            combos.push_back(bits);
        }
    }
    return combos;
}

bool
MapSpace::capacityPruned(const FactorGrid &factors) const
{
    const int S = levelCount();
    const int D = dimCount();
    const int T = workload_.tensorCount();
    SmallVector<std::int64_t, 16> tiles;
    TileExtents extents;
    for (int l = 0; l < S; ++l) {
        double cap = arch_.level(l).capacity_words;
        if (std::isinf(cap)) {
            continue;
        }
        tiles.assign(static_cast<std::size_t>(D), 1);
        for (int d = 0; d < D; ++d) {
            for (int l2 = l; l2 < S; ++l2) {
                tiles[static_cast<std::size_t>(d)] *= factors.row(l2)[d];
            }
        }
        // Minimum possible occupancy: only tensors kept under every
        // admissible mask count, at their dense tile footprint (the
        // engine's worst-case words for an unformatted kept tensor).
        double occupancy = 0.0;
        const auto &ch = keep_choices_[static_cast<std::size_t>(l)];
        for (int t = 0; t < T; ++t) {
            bool always_kept = (l == 0) ||
                (ch.size() == 1 &&
                 (ch.front().empty() ||
                  ch.front()[static_cast<std::size_t>(t)]));
            if (!always_kept) {
                continue;
            }
            workload_.tensorTileExtentsInto(t, tiles.data(), extents);
            occupancy += static_cast<double>(volume(extents));
        }
        if (occupancy > cap) {
            return true;
        }
    }
    return false;
}

MapSpace::BlockCounts
MapSpace::blockCounts(const FactorGrid &factors) const
{
    BlockCounts c;
    double ps_raw = 1.0;   // permutation x spatial, before symmetry
    double ps_sym = 1.0;   // permutation x spatial, canonical orders
    double keeps_raw = 1.0;
    std::int64_t block = 1;
    for (int l = 0; l < levelCount(); ++l) {
        const std::int64_t *lf = factors.row(l);
        std::uint64_t mask = tiledMask(lf);
        std::int64_t raw_perms =
            orderConstrained(l) ? 1 : math::factorial(countBits(mask));
        std::int64_t perms = raw_perms;
        if (canonicalAt(l, mask)) {
            perms = static_cast<std::int64_t>(
                canonicalOrders(mask).size());
        }
        std::int64_t spatial = 0;
        for (int d = 0; d < dimCount(); ++d) {
            spatial += spatialCandidate(l, d, lf[d]) ? 1 : 0;
        }
        spatial = std::max<std::int64_t>(1, spatial);
        ps_raw *= static_cast<double>(raw_perms) *
                  static_cast<double>(spatial);
        ps_sym *= static_cast<double>(perms) *
                  static_cast<double>(spatial);
        keeps_raw *= static_cast<double>(
            keep_choices_[static_cast<std::size_t>(l)].size());
        block = math::mulSat(block, perms);
        block = math::mulSat(block, spatial);
    }
    double keeps_pruned = keeps_raw;
    std::int64_t keep_block = 1;
    if (options_.prune_dominated_keeps && !keep_free_levels_.empty()) {
        // The joint keep axis factorizes per tensor: every open level
        // offers all masks, so a joint choice is exactly one
        // free-level keep column per tensor.
        auto rel = relevantLevelMasks(factors);
        keeps_pruned = 1.0;
        for (int t = 0; t < workload_.tensorCount(); ++t) {
            std::int64_t n = static_cast<std::int64_t>(
                keepCombos(t, rel[static_cast<std::size_t>(t)])
                    .size());
            keeps_pruned *= static_cast<double>(n);
            keep_block = math::mulSat(keep_block, n);
        }
    } else {
        for (int l = 0; l < levelCount(); ++l) {
            keep_block = math::mulSat(
                keep_block,
                static_cast<std::int64_t>(
                    keep_choices_[static_cast<std::size_t>(l)]
                        .size()));
        }
    }
    c.raw = ps_raw * keeps_raw;
    c.symmetry = ps_sym * keeps_raw;
    c.pruned = ps_sym * keeps_pruned;
    c.block = math::mulSat(block, keep_block);
    return c;
}

std::int64_t
MapSpace::tilingCount() const
{
    std::int64_t tilings = 1;
    for (std::int64_t c : split_count_) {
        tilings = math::mulSat(tilings, c);
    }
    return tilings;
}

std::vector<MapSpace::Point>
MapSpace::coarsePoints(std::int64_t tiling_index, int max_keeps) const
{
    SL_ASSERT(pointEncodable(),
              "coarsePoints requires materialized tiling axes");
    SL_ASSERT(tiling_index >= 0 && tiling_index < tilingCount(),
              "tiling index ", tiling_index, " out of range");
    SL_ASSERT(max_keeps > 0, "max_keeps must be positive");
    const int S = levelCount();
    std::vector<std::int64_t> radices(split_count_.begin(),
                                      split_count_.end());
    auto digits = math::mixedRadixDecode(tiling_index, radices);
    Point base;
    base.tiling.assign(digits.begin(), digits.end());
    base.order.resize(static_cast<std::size_t>(S));
    base.spatial.assign(static_cast<std::size_t>(S), -1);
    base.keep.assign(static_cast<std::size_t>(S), 0);
    // Reconcile fills the default ascending loop order and the first
    // spatial candidate — the coarse representative of the fine axes.
    base = reconcile(std::move(base));

    std::vector<std::int64_t> kradices(static_cast<std::size_t>(S));
    std::int64_t total = 1;
    for (int l = 0; l < S; ++l) {
        kradices[static_cast<std::size_t>(l)] =
            static_cast<std::int64_t>(
                keep_choices_[static_cast<std::size_t>(l)].size());
        total = math::mulSat(total,
                             kradices[static_cast<std::size_t>(l)]);
    }
    std::int64_t k = std::min<std::int64_t>(max_keeps, total);
    std::int64_t stride = total / k;
    std::vector<Point> out;
    out.reserve(static_cast<std::size_t>(k));
    for (std::int64_t j = 0; j < k; ++j) {
        auto kd = math::mixedRadixDecode(j * stride, kradices);
        Point p = base;
        p.keep.assign(kd.begin(), kd.end());
        out.push_back(std::move(p));
    }
    return out;
}

Mapping
MapSpace::sampleMapping(std::uint64_t seed) const
{
    SL_ASSERT(!empty_, "sampling an empty mapspace");
    std::mt19937_64 rng(seed);
    const int S = levelCount();
    const int D = dimCount();

    // 1. Split each dimension's bound into per-level factors by
    //    repeatedly peeling random divisors from the innermost
    //    admissible level upward; the outermost admissible level takes
    //    the residual. With no constraints every level is admissible
    //    and this consumes the RNG exactly like the pre-IR sampler.
    FactorGrid factors(S, D);
    for (int d = 0; d < D; ++d) {
        const auto &lvls = allowed_[static_cast<std::size_t>(d)];
        std::int64_t remaining = workload_.dims()[d].bound;
        if (lvls.empty()) {
            continue;  // bound == 1 (empty spaces are rejected above)
        }
        for (std::size_t i = lvls.size(); i-- > 1 && remaining > 1;) {
            auto divs = math::divisors(remaining);
            std::uniform_int_distribution<std::size_t> pick(
                0, divs.size() - 1);
            std::int64_t f = divs[pick(rng)];
            factors.at(lvls[i], d) = f;
            remaining /= f;
        }
        factors.at(lvls.front(), d) = remaining;
    }

    // 2. Per level: loop order (constrained sequence or a shuffle) and
    //    spatial assignment.
    std::vector<LevelNest> nests(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        const LevelConstraint &con =
            level_cons_[static_cast<std::size_t>(l)];
        const std::int64_t *lf = factors.row(l);
        std::vector<int> dims;
        for (int d = 0; d < D; ++d) {
            if (lf[static_cast<std::size_t>(d)] > 1) {
                dims.push_back(d);
            }
        }
        if (!con.loop_order.empty()) {
            // Every tiled dimension here is in the constrained order
            // by construction; restrict to, and order by, it.
            std::vector<int> ordered;
            for (int d : con.loop_order) {
                if (lf[static_cast<std::size_t>(d)] > 1) {
                    ordered.push_back(d);
                }
            }
            dims = std::move(ordered);
        } else {
            std::shuffle(dims.begin(), dims.end(), rng);
        }

        // Spatial choice: with fanout > 1, make one allowed tiled
        // dimension spatial when possible (candidate order follows the
        // loop order, as the pre-IR sampler did).
        int spatial_dim = -1;
        if (arch_.level(l).fanout > 1) {
            std::vector<int> candidates;
            for (int d : dims) {
                bool allowed = con.spatial_dims.empty() ||
                    std::find(con.spatial_dims.begin(),
                              con.spatial_dims.end(), d) !=
                        con.spatial_dims.end();
                if (allowed && lf[static_cast<std::size_t>(d)] <=
                        arch_.level(l).fanout) {
                    candidates.push_back(d);
                }
            }
            if (!candidates.empty()) {
                std::uniform_int_distribution<std::size_t> pick(
                    0, candidates.size() - 1);
                spatial_dim = candidates[pick(rng)];
            }
        }
        for (int d : dims) {
            nests[static_cast<std::size_t>(l)].loops.push_back(
                {d, lf[static_cast<std::size_t>(d)],
                 d == spatial_dim});
        }
        // Keep draw: a single choice (constrained mask or closed keep
        // axis) assigns without consuming the RNG, so explore_bypass
        // off reproduces the historical stream exactly.
        const auto &choices = keep_choices_[static_cast<std::size_t>(l)];
        if (choices.size() > 1) {
            std::uniform_int_distribution<std::size_t> pick(
                0, choices.size() - 1);
            nests[static_cast<std::size_t>(l)].keep = choices[pick(rng)];
        } else {
            nests[static_cast<std::size_t>(l)].keep = choices.front();
        }
    }
    return Mapping(std::move(nests));
}

Mapping
MapSpace::mappingAt(std::int64_t index) const
{
    SL_ASSERT(size_.enumerable >= 0, "mapspace is not enumerable");
    SL_ASSERT(index >= 0 && index < size_.enumerable,
              "mapspace index ", index, " out of range");

    // Locate the tiling block, then peel per-level digits.
    auto it = std::upper_bound(tiling_prefix_.begin(),
                               tiling_prefix_.end(), index);
    std::int64_t t =
        static_cast<std::int64_t>(it - tiling_prefix_.begin()) - 1;
    std::int64_t rest = index - tiling_prefix_[static_cast<std::size_t>(t)];

    std::vector<std::int64_t> radices(split_count_.begin(),
                                      split_count_.end());
    auto digits = math::mixedRadixDecode(t, radices);
    std::vector<std::size_t> tiling(digits.begin(), digits.end());
    const FactorGrid factors = tilingFactors(tiling.data());

    const int S = levelCount();
    const int T = workload_.tensorCount();
    std::vector<LevelNest> nests(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        const std::int64_t *lf = factors.row(l);
        std::uint64_t mask = tiledMask(lf);
        std::vector<int> order;
        if (orderConstrained(l)) {
            for (int d :
                 level_cons_[static_cast<std::size_t>(l)].loop_order) {
                if (lf[static_cast<std::size_t>(d)] > 1) {
                    order.push_back(d);
                }
            }
        } else if (canonicalAt(l, mask)) {
            const auto &orders = canonicalOrders(mask);
            std::int64_t n = static_cast<std::int64_t>(orders.size());
            order = orders[static_cast<std::size_t>(rest % n)];
            rest /= n;
        } else {
            std::vector<int> base;
            for (int d = 0; d < dimCount(); ++d) {
                if (lf[static_cast<std::size_t>(d)] > 1) {
                    base.push_back(d);
                }
            }
            std::int64_t perms =
                math::factorial(static_cast<int>(base.size()));
            std::int64_t digit = rest % perms;
            rest /= perms;
            for (int pos : math::nthPermutation(
                     static_cast<int>(base.size()), digit)) {
                order.push_back(base[static_cast<std::size_t>(pos)]);
            }
        }

        auto candidates = spatialCandidates(l, lf);
        int spatial_dim = -1;
        if (!candidates.empty()) {
            std::int64_t n =
                static_cast<std::int64_t>(candidates.size());
            spatial_dim = candidates[static_cast<std::size_t>(rest % n)];
            rest /= n;
        }

        for (int d : order) {
            nests[static_cast<std::size_t>(l)].loops.push_back(
                {d, lf[static_cast<std::size_t>(d)],
                 d == spatial_dim});
        }
    }

    // Keep axis: with the dominance pass on, the joint choice is one
    // per-tensor free-level combination digit each (matching
    // blockCounts); otherwise one raw mask digit per level.
    if (options_.prune_dominated_keeps && !keep_free_levels_.empty()) {
        for (int l = 0; l < S; ++l) {
            const auto &ch = keep_choices_[static_cast<std::size_t>(l)];
            if (ch.size() == 1) {
                nests[static_cast<std::size_t>(l)].keep = ch.front();
            }
        }
        auto rel = relevantLevelMasks(factors);
        const int F = static_cast<int>(keep_free_levels_.size());
        std::vector<std::uint32_t> combo(static_cast<std::size_t>(T),
                                         0);
        for (int tt = 0; tt < T; ++tt) {
            auto combos =
                keepCombos(tt, rel[static_cast<std::size_t>(tt)]);
            std::int64_t n = static_cast<std::int64_t>(combos.size());
            combo[static_cast<std::size_t>(tt)] =
                combos[static_cast<std::size_t>(rest % n)];
            rest /= n;
        }
        for (int i = 0; i < F; ++i) {
            int l = keep_free_levels_[static_cast<std::size_t>(i)];
            std::vector<bool> keep(static_cast<std::size_t>(T));
            bool all = true;
            for (int tt = 0; tt < T; ++tt) {
                bool bit = (combo[static_cast<std::size_t>(tt)] >>
                            static_cast<unsigned>(i)) &
                           1u;
                keep[static_cast<std::size_t>(tt)] = bit;
                all = all && bit;
            }
            // All-true is canonically the empty (keep-all) mask.
            nests[static_cast<std::size_t>(l)].keep =
                all ? std::vector<bool>{} : std::move(keep);
        }
    } else {
        for (int l = 0; l < S; ++l) {
            const auto &keeps =
                keep_choices_[static_cast<std::size_t>(l)];
            std::int64_t kn = static_cast<std::int64_t>(keeps.size());
            nests[static_cast<std::size_t>(l)].keep =
                keeps[static_cast<std::size_t>(rest % kn)];
            rest /= kn;
        }
    }
    SL_ASSERT(rest == 0, "mapspace index decode left a residue");
    return Mapping(std::move(nests));
}

Mapping
MapSpace::materialize(const Point &point) const
{
    Mapping mapping;
    materializeInto(point, mapping);
    return mapping;
}

void
MapSpace::materializeInto(const Point &point, Mapping &out) const
{
    const FactorGrid factors = tilingFactors(point.tiling.data());
    const int S = levelCount();
    out.resizeLevels(S);
    for (int l = 0; l < S; ++l) {
        const std::int64_t *lf = factors.row(l);
        const auto &order = point.order[static_cast<std::size_t>(l)];
        int spatial_dim = point.spatial[static_cast<std::size_t>(l)];
        LevelNest &nest = out.level(l);
        nest.loops.clear();
        for (int d : order) {
            SL_ASSERT(lf[static_cast<std::size_t>(d)] > 1,
                      "point order lists an untiled dimension");
            nest.loops.push_back({d, lf[static_cast<std::size_t>(d)],
                                  d == spatial_dim});
        }
        nest.keep = keep_choices_[static_cast<std::size_t>(l)]
                                 [point.keep[static_cast<std::size_t>(l)]];
    }
}

std::optional<MapSpace::Point>
MapSpace::encode(const Mapping &mapping) const
{
    const int S = levelCount();
    const int D = dimCount();
    if (mapping.levelCount() != S) {
        return std::nullopt;
    }
    Point point;
    point.tiling.resize(static_cast<std::size_t>(D));
    point.order.resize(static_cast<std::size_t>(S));
    point.spatial.assign(static_cast<std::size_t>(S), -1);
    point.keep.resize(static_cast<std::size_t>(S));

    FactorGrid factors(S, D);
    for (int l = 0; l < S; ++l) {
        const LevelNest &nest = mapping.level(l);
        for (const Loop &loop : nest.loops) {
            if (loop.dim < 0 || loop.dim >= D ||
                factors.at(l, loop.dim) != 1) {
                return std::nullopt;  // unknown or repeated dimension
            }
            factors.at(l, loop.dim) = loop.bound;
            if (loop.bound > 1) {
                point.order[static_cast<std::size_t>(l)].push_back(
                    loop.dim);
            }
            if (loop.spatial) {
                if (point.spatial[static_cast<std::size_t>(l)] != -1) {
                    return std::nullopt;  // two spatial loops
                }
                point.spatial[static_cast<std::size_t>(l)] = loop.dim;
            }
        }
        const auto &keeps = keep_choices_[static_cast<std::size_t>(l)];
        auto kit = std::find(keeps.begin(), keeps.end(), nest.keep);
        if (kit == keeps.end()) {
            return std::nullopt;
        }
        point.keep[static_cast<std::size_t>(l)] =
            static_cast<std::size_t>(kit - keeps.begin());
    }
    for (int d = 0; d < D; ++d) {
        const auto &dim_splits = splits_[static_cast<std::size_t>(d)];
        if (dim_splits.empty()) {
            return std::nullopt;  // tiling axis not materialized
        }
        std::vector<std::int64_t> split(static_cast<std::size_t>(S));
        for (int l = 0; l < S; ++l) {
            split[static_cast<std::size_t>(l)] = factors.at(l, d);
        }
        auto sit = std::lower_bound(dim_splits.begin(),
                                    dim_splits.end(), split);
        if (sit == dim_splits.end() || *sit != split) {
            return std::nullopt;  // outside the pruned tiling axis
        }
        point.tiling[static_cast<std::size_t>(d)] =
            static_cast<std::size_t>(sit - dim_splits.begin());
    }
    if (!satisfies(materialize(point))) {
        return std::nullopt;
    }
    return point;
}

MapSpace::Point
MapSpace::reconcile(Point point) const
{
    reconcileInPlace(point);
    return point;
}

void
MapSpace::reconcileInPlace(Point &point) const
{
    const int S = levelCount();
    const FactorGrid factors = tilingFactors(point.tiling.data());
    for (int l = 0; l < S; ++l) {
        const std::int64_t *lf = factors.row(l);
        SmallVector<int, 8> order;
        if (orderConstrained(l)) {
            for (int d : level_cons_[static_cast<std::size_t>(l)]
                             .loop_order) {
                if (lf[static_cast<std::size_t>(d)] > 1) {
                    order.push_back(d);
                }
            }
        } else {
            for (int d : point.order[static_cast<std::size_t>(l)]) {
                if (lf[static_cast<std::size_t>(d)] > 1) {
                    order.push_back(d);
                }
            }
            for (int d = 0; d < dimCount(); ++d) {
                if (lf[static_cast<std::size_t>(d)] > 1 &&
                    std::find(order.begin(), order.end(), d) ==
                        order.end()) {
                    order.push_back(d);
                }
            }
        }
        // Assigned in place, so the point's order buffers are reused.
        point.order[static_cast<std::size_t>(l)].assign(order.begin(),
                                                        order.end());
        const Candidates candidates = spatialCandidates(l, lf);
        int &spatial = point.spatial[static_cast<std::size_t>(l)];
        if (std::find(candidates.begin(), candidates.end(), spatial) ==
            candidates.end()) {
            spatial = candidates.empty() ? -1 : candidates.front();
        }
    }
}

MapSpace::Point
MapSpace::samplePoint(std::uint64_t seed) const
{
    SL_ASSERT(pointEncodable(),
              "samplePoint requires every tiling axis materialized");
    auto point = encode(sampleMapping(seed));
    SL_ASSERT(point.has_value(),
              "a sampled mapping failed to encode into its own space");
    return *std::move(point);
}

MapSpace::Point
MapSpace::crossover(const Point &a, const Point &b,
                    std::mt19937_64 &rng) const
{
    std::uniform_int_distribution<int> coin(0, 1);
    Point child = a;
    for (std::size_t d = 0; d < child.tiling.size(); ++d) {
        if (coin(rng)) {
            child.tiling[d] = b.tiling[d];
        }
    }
    for (std::size_t l = 0; l < child.order.size(); ++l) {
        if (coin(rng)) {
            child.order[l] = b.order[l];
        }
        if (coin(rng)) {
            child.spatial[l] = b.spatial[l];
        }
        if (coin(rng)) {
            child.keep[l] = b.keep[l];
        }
    }
    return reconcile(std::move(child));
}

std::optional<MapSpace::Point>
MapSpace::randomNeighbor(const Point &point, std::mt19937_64 &rng) const
{
    Point p;
    if (!randomNeighborInto(point, rng, p)) {
        return std::nullopt;
    }
    return p;
}

bool
MapSpace::randomNeighborInto(const Point &point, std::mt19937_64 &rng,
                             Point &p) const
{
    // Count the moves of each category in the order `neighbors` emits
    // them, draw the same index, and build (and reconcile) only that
    // move instead of the whole neighborhood.
    const int S = levelCount();
    const int D = dimCount();
    auto tilingMove = [&](int d, int delta) {
        std::int64_t next = delta + static_cast<std::int64_t>(
            point.tiling[static_cast<std::size_t>(d)]);
        return next >= 0 && next < splitCount(d);
    };
    std::size_t tiling_moves = 0;
    for (int d = 0; d < D; ++d) {
        tiling_moves += static_cast<std::size_t>(tilingMove(d, -1)) +
            static_cast<std::size_t>(tilingMove(d, 1));
    }
    std::size_t order_moves = 0;
    for (int l = 0; l < S; ++l) {
        const auto &order = point.order[static_cast<std::size_t>(l)];
        if (!orderConstrained(l) && !order.empty()) {
            order_moves += order.size() - 1;
        }
    }
    const FactorGrid factors = tilingFactors(point.tiling.data());
    // Alternatives to the current spatial loop, in `neighbors` order.
    auto spatialAlts = [&](int l) {
        Candidates alts = spatialCandidates(l, factors.row(l));
        alts.resize(static_cast<std::size_t>(
            std::remove(alts.begin(), alts.end(),
                        point.spatial[static_cast<std::size_t>(l)]) -
            alts.begin()));
        return alts;
    };
    std::size_t spatial_moves = 0;
    for (int l = 0; l < S; ++l) {
        spatial_moves += spatialAlts(l).size();
    }
    auto keepAlts = [&](int l) {
        std::size_t n = keep_choices_[static_cast<std::size_t>(l)].size();
        return n - (point.keep[static_cast<std::size_t>(l)] < n ? 1 : 0);
    };
    std::size_t keep_moves = 0;
    for (int l = 0; l < S; ++l) {
        keep_moves += keepAlts(l);
    }
    const std::size_t total =
        tiling_moves + order_moves + spatial_moves + keep_moves;
    if (total == 0) {
        return false;
    }
    std::uniform_int_distribution<std::size_t> pick(0, total - 1);
    std::size_t k = pick(rng);

    p = point;
    if (k < tiling_moves) {
        for (int d = 0; d < D; ++d) {
            for (int delta : {-1, 1}) {
                if (!tilingMove(d, delta)) {
                    continue;
                }
                if (k-- == 0) {
                    auto &idx = p.tiling[static_cast<std::size_t>(d)];
                    idx = static_cast<std::size_t>(
                        static_cast<std::int64_t>(idx) + delta);
                    reconcileInPlace(p);
                    return true;
                }
            }
        }
    }
    k -= tiling_moves;
    if (k < order_moves) {
        for (int l = 0; l < S; ++l) {
            auto &order = p.order[static_cast<std::size_t>(l)];
            if (orderConstrained(l) || order.empty()) {
                continue;
            }
            if (k < order.size() - 1) {
                std::swap(order[k], order[k + 1]);
                return true;
            }
            k -= order.size() - 1;
        }
    }
    k -= order_moves;
    if (k < spatial_moves) {
        for (int l = 0; l < S; ++l) {
            const Candidates alts = spatialAlts(l);
            if (k < alts.size()) {
                p.spatial[static_cast<std::size_t>(l)] = alts[k];
                return true;
            }
            k -= alts.size();
        }
    }
    k -= spatial_moves;
    for (int l = 0; l < S; ++l) {
        std::size_t n = keepAlts(l);
        if (k < n) {
            // Alternatives skip the current mask, as in `neighbors`.
            std::size_t current = point.keep[static_cast<std::size_t>(l)];
            p.keep[static_cast<std::size_t>(l)] = k < current ? k : k + 1;
            return true;
        }
        k -= n;
    }
    SL_PANIC("neighbor index out of range");
}

std::vector<MapSpace::Point>
MapSpace::neighbors(const Point &point) const
{
    std::vector<Point> out;
    const int S = levelCount();
    const FactorGrid factors = tilingFactors(point.tiling.data());

    // Tiling moves: adjacent split per dimension.
    for (int d = 0; d < dimCount(); ++d) {
        std::size_t idx = point.tiling[static_cast<std::size_t>(d)];
        for (int delta : {-1, 1}) {
            std::int64_t next = static_cast<std::int64_t>(idx) + delta;
            if (next < 0 || next >= splitCount(d)) {
                continue;
            }
            Point p = point;
            p.tiling[static_cast<std::size_t>(d)] =
                static_cast<std::size_t>(next);
            out.push_back(reconcile(std::move(p)));
        }
    }

    // Permutation moves: adjacent transpositions at unconstrained
    // levels.
    for (int l = 0; l < S; ++l) {
        if (orderConstrained(l)) {
            continue;
        }
        const auto &order = point.order[static_cast<std::size_t>(l)];
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            Point p = point;
            std::swap(p.order[static_cast<std::size_t>(l)][i],
                      p.order[static_cast<std::size_t>(l)][i + 1]);
            out.push_back(std::move(p));
        }
    }

    // Spatial moves: every alternative candidate.
    for (int l = 0; l < S; ++l) {
        for (int d : spatialCandidates(l, factors.row(l))) {
            if (d == point.spatial[static_cast<std::size_t>(l)]) {
                continue;
            }
            Point p = point;
            p.spatial[static_cast<std::size_t>(l)] = d;
            out.push_back(std::move(p));
        }
    }

    // Keep moves: every alternative mask.
    for (int l = 0; l < S; ++l) {
        const auto &keeps = keep_choices_[static_cast<std::size_t>(l)];
        for (std::size_t k = 0; k < keeps.size(); ++k) {
            if (k == point.keep[static_cast<std::size_t>(l)]) {
                continue;
            }
            Point p = point;
            p.keep[static_cast<std::size_t>(l)] = k;
            out.push_back(std::move(p));
        }
    }
    return out;
}

bool
MapSpace::pointEncodable() const
{
    for (const auto &dim_splits : splits_) {
        if (dim_splits.empty()) {
            return false;
        }
    }
    return !empty_;
}

bool
MapSpace::satisfies(const Mapping &mapping) const
{
    if (mapping.levelCount() != levelCount()) {
        return false;
    }
    for (int l = 0; l < levelCount(); ++l) {
        const LevelConstraint &con =
            level_cons_[static_cast<std::size_t>(l)];
        const LevelNest &nest = mapping.level(l);
        if (!con.loop_order.empty()) {
            // Loops must visit a subsequence of the constrained order.
            std::size_t pos = 0;
            for (const Loop &loop : nest.loops) {
                while (pos < con.loop_order.size() &&
                       con.loop_order[pos] != loop.dim) {
                    ++pos;
                }
                if (pos == con.loop_order.size()) {
                    return false;
                }
                ++pos;
            }
        }
        if (!con.spatial_dims.empty()) {
            for (const Loop &loop : nest.loops) {
                if (loop.spatial &&
                    std::find(con.spatial_dims.begin(),
                              con.spatial_dims.end(), loop.dim) ==
                        con.spatial_dims.end()) {
                    return false;
                }
            }
        }
        if (!con.keep.empty()) {
            std::vector<bool> expected(
                static_cast<std::size_t>(workload_.tensorCount()),
                false);
            for (int t : con.keep) {
                expected[static_cast<std::size_t>(t)] = true;
            }
            if (nest.keep != expected) {
                return false;
            }
        }
    }
    return true;
}

} // namespace sparseloop
