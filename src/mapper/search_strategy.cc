/**
 * @file
 * Search-strategy implementations over the mapspace IR.
 */

#include "mapper/search_strategy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace sparseloop {

void
SearchStrategy::observe(const std::vector<SearchCandidate> &batch,
                        const std::vector<double> &objectives)
{
    (void)batch;
    (void)objectives;
}

void
SearchStrategy::warmStart(const std::vector<MapSpace::Point> &points)
{
    (void)points;
}

void
SearchStrategy::proposeInto(int max_count,
                            std::vector<SearchCandidate> &batch)
{
    batch = propose(max_count);
}

// ---------------------------------------------------------------------------
// RandomSearch
// ---------------------------------------------------------------------------

RandomSearch::RandomSearch(const MapSpace &space, std::uint64_t seed)
    : space_(space), seed_(seed)
{
}

std::vector<SearchCandidate>
RandomSearch::propose(int max_count)
{
    std::vector<SearchCandidate> batch;
    batch.reserve(static_cast<std::size_t>(std::max(0, max_count)));
    for (int i = 0; i < max_count; ++i) {
        std::int64_t index = next_++;
        // seed + index is the historical per-candidate derivation; a
        // given index yields the same candidate at any batch size.
        batch.push_back(
            {index,
             space_.sampleMapping(
                 seed_ + static_cast<std::uint64_t>(index))});
    }
    return batch;
}

// ---------------------------------------------------------------------------
// ExhaustiveSearch
// ---------------------------------------------------------------------------

ExhaustiveSearch::ExhaustiveSearch(const MapSpace &space)
    : space_(space)
{
    SL_ASSERT(space_.size().enumerable >= 0,
              "exhaustive search requires an enumerable mapspace");
}

std::vector<SearchCandidate>
ExhaustiveSearch::propose(int max_count)
{
    std::vector<SearchCandidate> batch;
    const std::int64_t total = space_.size().enumerable;
    while (max_count-- > 0 && next_ < total) {
        batch.push_back({next_, space_.mappingAt(next_)});
        ++next_;
    }
    return batch;
}

// ---------------------------------------------------------------------------
// HybridSearch
// ---------------------------------------------------------------------------

HybridSearch::HybridSearch(const MapSpace &space, std::uint64_t seed,
                           std::int64_t warmup)
    : space_(space), seed_(seed),
      warmup_(std::max<std::int64_t>(1, warmup)),
      random_left_(warmup_),
      incumbent_obj_(std::numeric_limits<double>::infinity())
{
}

std::vector<SearchCandidate>
HybridSearch::proposeRandom(int count)
{
    std::vector<SearchCandidate> batch;
    batch.reserve(static_cast<std::size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
        batch.push_back(
            {next_++,
             space_.sampleMapping(
                 seed_ + static_cast<std::uint64_t>(next_seed_++))});
    }
    refining_ = false;
    return batch;
}

void
HybridSearch::warmStart(const std::vector<MapSpace::Point> &points)
{
    warm_pending_ = points;
}

std::vector<SearchCandidate>
HybridSearch::propose(int max_count)
{
    if (max_count <= 0) {
        return {};
    }
    // Warm-start points go out ahead of the random warmup; observe()
    // adopts an improving one as the incumbent like any candidate.
    if (!warm_pending_.empty()) {
        std::vector<SearchCandidate> batch;
        std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(max_count), warm_pending_.size());
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(
                {next_++, space_.materialize(warm_pending_[i])});
        }
        warm_pending_.erase(
            warm_pending_.begin(),
            warm_pending_.begin() + static_cast<std::ptrdiff_t>(take));
        refining_ = false;
        return batch;
    }
    // Warmup/restart: pure random while the exploration allowance
    // lasts. With no refinable incumbent after a window (all
    // candidates invalid or un-encodable), grant another one.
    if (pending_.empty() && outstanding_ == 0) {
        if (random_left_ == 0 && !incumbent_) {
            random_left_ = warmup_;
        }
        if (random_left_ > 0) {
            std::int64_t want =
                std::min<std::int64_t>(max_count, random_left_);
            auto batch = proposeRandom(static_cast<int>(want));
            random_left_ -= static_cast<std::int64_t>(batch.size());
            return batch;
        }
        // Start a refinement round: fix the incumbent's full
        // neighborhood now and stream it out; the improve-or-restart
        // decision falls at the round boundary (in observe), so the
        // proposal sequence is independent of the driver's batch size.
        pending_ = space_.neighbors(*incumbent_);
        round_improved_ = false;
        if (pending_.empty()) {
            // Isolated point: only random exploration is left.
            random_left_ = warmup_;
            return propose(max_count);
        }
    }
    std::vector<SearchCandidate> batch;
    std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(max_count), pending_.size());
    for (std::size_t i = 0; i < take; ++i) {
        batch.push_back({next_++, space_.materialize(pending_[i])});
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    outstanding_ += static_cast<std::int64_t>(take);
    refining_ = true;
    return batch;
}

void
HybridSearch::observe(const std::vector<SearchCandidate> &batch,
                      const std::vector<double> &objectives)
{
    SL_ASSERT(batch.size() == objectives.size(),
              "objective feedback size mismatch");
    bool improved = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (objectives[i] < incumbent_obj_) {
            auto point = space_.encode(batch[i].mapping);
            if (point) {
                incumbent_ = std::move(point);
                incumbent_obj_ = objectives[i];
                improved = true;
            }
        }
    }
    if (!refining_) {
        return;
    }
    outstanding_ -= static_cast<std::int64_t>(batch.size());
    round_improved_ = round_improved_ || improved;
    if (outstanding_ == 0 && pending_.empty()) {
        // Round boundary: a fruitless full neighborhood means a local
        // optimum — grant another random-exploration window (the
        // incumbent survives, so any later improvement refines again).
        if (!round_improved_) {
            random_left_ = warmup_;
        }
        refining_ = false;
    }
}

// ---------------------------------------------------------------------------
// RoundStrategy
// ---------------------------------------------------------------------------

RoundStrategy::RoundStrategy(const MapSpace &space, std::uint64_t seed)
    : space_(space), seed_(seed), degenerate_(!space.pointEncodable())
{
}

MapSpace::Point
RoundStrategy::nextSamplePoint()
{
    return space_.samplePoint(
        seed_ + static_cast<std::uint64_t>(next_seed_++));
}

std::vector<SearchCandidate>
RoundStrategy::propose(int max_count)
{
    std::vector<SearchCandidate> batch;
    proposeInto(max_count, batch);
    return batch;
}

void
RoundStrategy::proposeInto(int max_count,
                           std::vector<SearchCandidate> &batch)
{
    if (max_count <= 0) {
        batch.clear();
        return;
    }
    if (degenerate_) {
        // No coordinate form available: seeded random sampling, the
        // same candidate derivation RandomSearch uses.
        batch.clear();
        for (int i = 0; i < max_count; ++i) {
            batch.push_back(
                {next_++,
                 space_.sampleMapping(
                     seed_ + static_cast<std::uint64_t>(next_seed_++))});
        }
        return;
    }
    if (round_proposed_ == round_points_.size() &&
        round_observed_ == round_points_.size()) {
        // Previous round fully proposed and observed: fix the next
        // round now. Streaming it out across propose() calls keeps the
        // proposal sequence independent of the driver's batch size.
        round_points_.clear();
        buildRound(round_points_);
        SL_ASSERT(!round_points_.empty(),
                  "a search round must contain at least one point");
        round_proposed_ = 0;
        round_observed_ = 0;
        round_objectives_.assign(
            round_points_.size(),
            std::numeric_limits<double>::infinity());
    }
    std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(max_count),
        round_points_.size() - round_proposed_);
    // Resized, not cleared: surviving entries keep their mapping
    // buffers, which materializeInto reuses.
    batch.resize(take);
    for (std::size_t i = 0; i < take; ++i) {
        batch[i].index = next_++;
        space_.materializeInto(round_points_[round_proposed_ + i],
                               batch[i].mapping);
    }
    round_proposed_ += take;
}

void
RoundStrategy::observe(const std::vector<SearchCandidate> &batch,
                       const std::vector<double> &objectives)
{
    SL_ASSERT(batch.size() == objectives.size(),
              "objective feedback size mismatch");
    if (degenerate_) {
        return;
    }
    SL_ASSERT(round_observed_ + objectives.size() <= round_proposed_,
              "observed more candidates than proposed this round");
    for (double obj : objectives) {
        round_objectives_[round_observed_++] = obj;
    }
    if (round_observed_ == round_points_.size()) {
        roundComplete(round_points_, round_objectives_);
    }
}

// ---------------------------------------------------------------------------
// AnnealingSearch
// ---------------------------------------------------------------------------

AnnealingSearch::AnnealingSearch(const MapSpace &space,
                                 std::uint64_t seed, std::int64_t budget,
                                 AnnealingOptions options)
    : RoundStrategy(space, seed), options_(options)
{
    options_.chains = std::max(1, options_.chains);
    temperature_ = std::max(options_.initial_temperature, 1e-12);
    const double final_t = std::min(
        std::max(options_.final_temperature, 1e-12), temperature_);
    if (options_.cooling > 0.0) {
        cooling_ = std::min(options_.cooling, 1.0);
    } else {
        // Spread the schedule over the move rounds the budget affords
        // (round 0 seeds the chains and takes no temperature step).
        const std::int64_t rounds = std::max<std::int64_t>(
            1, budget / options_.chains - 1);
        cooling_ = std::pow(final_t / temperature_,
                            1.0 / static_cast<double>(rounds));
    }
    chains_.resize(static_cast<std::size_t>(options_.chains));
    for (std::size_t i = 0; i < chains_.size(); ++i) {
        // Distinct deterministic streams per chain.
        chains_[i].rng.seed(
            seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    }
}

void
AnnealingSearch::warmStart(const std::vector<MapSpace::Point> &points)
{
    warm_points_ = points;
    if (warm_points_.size() > chains_.size()) {
        warm_points_.resize(chains_.size());
    }
}

void
AnnealingSearch::buildRound(std::vector<MapSpace::Point> &out)
{
    out.reserve(chains_.size());
    if (!initialized_) {
        // Round 0: seed every chain — warm-start elites first, seeded
        // random samples for the rest.
        for (std::size_t i = 0; i < chains_.size(); ++i) {
            out.push_back(i < warm_points_.size() ? warm_points_[i]
                                                  : nextSamplePoint());
        }
        return;
    }
    // Move round: one uniformly drawn neighbor per chain; an isolated
    // chain teleports to a fresh random point.
    for (Chain &chain : chains_) {
        out.emplace_back();
        if (!space_.randomNeighborInto(chain.point, chain.rng,
                                       out.back())) {
            out.back() = nextSamplePoint();
        }
    }
}

void
AnnealingSearch::roundComplete(
    const std::vector<MapSpace::Point> &points,
    const std::vector<double> &objectives)
{
    if (!initialized_) {
        for (std::size_t i = 0; i < chains_.size(); ++i) {
            chains_[i].point = points[i];
            chains_[i].objective = objectives[i];
        }
        initialized_ = true;
        return;
    }
    for (std::size_t i = 0; i < chains_.size(); ++i) {
        Chain &chain = chains_[i];
        const double current = chain.objective;
        const double candidate = objectives[i];
        bool accept;
        if (candidate < current) {
            accept = true;
        } else if (!std::isfinite(current)) {
            // Both invalid: keep walking so the chain can escape an
            // all-invalid region instead of freezing on it.
            accept = true;
        } else if (!std::isfinite(candidate)) {
            accept = false;
        } else {
            // Metropolis on the relative worsening: scale-free across
            // objectives whose magnitudes differ by orders of
            // magnitude (EDP vs cycles).
            const double scale = std::max(std::abs(current), 1e-300);
            const double worsening = (candidate - current) / scale;
            std::uniform_real_distribution<double> unit(0.0, 1.0);
            accept = unit(chain.rng) <
                std::exp(-worsening / temperature_);
        }
        if (accept) {
            chain.point = points[i];
            chain.objective = candidate;
        }
    }
    temperature_ *= cooling_;
}

// ---------------------------------------------------------------------------
// GeneticSearch
// ---------------------------------------------------------------------------

GeneticSearch::GeneticSearch(const MapSpace &space, std::uint64_t seed,
                             GeneticOptions options)
    : RoundStrategy(space, seed), options_(options),
      rng_(seed ^ 0xA5A5F00DCAFEBEEFull)
{
    options_.population = std::max(2, options_.population);
    options_.elites =
        std::min(std::max(0, options_.elites), options_.population - 1);
    options_.tournament = std::max(1, options_.tournament);
    options_.mutation_rate =
        std::min(std::max(options_.mutation_rate, 0.0), 1.0);
}

void
GeneticSearch::warmStart(const std::vector<MapSpace::Point> &points)
{
    warm_points_ = points;
    const auto cap = static_cast<std::size_t>(options_.population);
    if (warm_points_.size() > cap) {
        warm_points_.resize(cap);
    }
}

std::vector<std::size_t>
GeneticSearch::ranked(const std::vector<Member> &members)
{
    std::vector<std::size_t> order(members.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (members[a].objective != members[b].objective) {
                      return members[a].objective < members[b].objective;
                  }
                  return members[a].birth < members[b].birth;
              });
    return order;
}

std::size_t
GeneticSearch::selectParent()
{
    std::uniform_int_distribution<std::size_t> pick(
        0, parents_.size() - 1);
    std::size_t best = pick(rng_);
    for (int t = 1; t < options_.tournament; ++t) {
        std::size_t challenger = pick(rng_);
        const Member &a = parents_[best];
        const Member &b = parents_[challenger];
        if (b.objective < a.objective ||
            (b.objective == a.objective && b.birth < a.birth)) {
            best = challenger;
        }
    }
    return best;
}

void
GeneticSearch::buildRound(std::vector<MapSpace::Point> &out)
{
    round_births_.clear();
    const int population = options_.population;
    if (parents_.empty()) {
        // Generation 0: warm-start elites first, seeded samples after.
        out.reserve(static_cast<std::size_t>(population));
        for (int i = 0; i < population; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            out.push_back(idx < warm_points_.size() ? warm_points_[idx]
                                                    : nextSamplePoint());
            round_births_.push_back(next_birth_++);
        }
        return;
    }
    // Elites survive as-is (their objectives are already known, so
    // they are not re-proposed); the rest of the generation is bred.
    const std::vector<std::size_t> order = ranked(parents_);
    carried_.clear();
    for (int e = 0; e < options_.elites; ++e) {
        carried_.push_back(parents_[order[static_cast<std::size_t>(e)]]);
    }
    const int offspring =
        population - static_cast<int>(carried_.size());
    out.reserve(static_cast<std::size_t>(offspring));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < offspring; ++i) {
        const Member &pa = parents_[selectParent()];
        const Member &pb = parents_[selectParent()];
        MapSpace::Point child =
            space_.crossover(pa.point, pb.point, rng_);
        if (unit(rng_) < options_.mutation_rate) {
            if (auto move = space_.randomNeighbor(child, rng_)) {
                child = *std::move(move);
            }
        }
        out.push_back(std::move(child));
        round_births_.push_back(next_birth_++);
    }
}

void
GeneticSearch::roundComplete(
    const std::vector<MapSpace::Point> &points,
    const std::vector<double> &objectives)
{
    std::vector<Member> next = std::move(carried_);
    carried_.clear();
    next.reserve(next.size() + points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        next.push_back({points[i], objectives[i], round_births_[i]});
    }
    parents_ = std::move(next);
}

// ---------------------------------------------------------------------------
// HierarchicalSearch
// ---------------------------------------------------------------------------

namespace {

/** Round size of the coarse sweep and of the random fallback phase. */
constexpr std::size_t kHierarchicalRound = 64;

} // namespace

HierarchicalSearch::HierarchicalSearch(const MapSpace &space,
                                       std::uint64_t seed,
                                       std::int64_t budget,
                                       HierarchicalOptions options)
    : RoundStrategy(space, seed), options_(options)
{
    options_.refine_width = std::max(1, options_.refine_width);
    options_.keeps_per_tiling = std::max(1, options_.keeps_per_tiling);
    if (options_.coarse_budget <= 0) {
        options_.coarse_budget = std::max<std::int64_t>(1, budget / 2);
    }
    if (degenerate_) {
        return;  // base class falls back to seeded random sampling
    }
    // Coarse axis: every tiling when they fit the allowance, an even
    // stride over the tiling index range otherwise.
    const std::int64_t tilings = space_.tilingCount();
    const std::int64_t want_tilings = std::max<std::int64_t>(
        1, options_.coarse_budget / options_.keeps_per_tiling);
    const std::int64_t n = std::min(tilings, want_tilings);
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t t =
            tilings <= want_tilings ? i : i * (tilings / n);
        for (MapSpace::Point &p :
             space_.coarsePoints(t, options_.keeps_per_tiling)) {
            coarse_pending_.push_back(std::move(p));
        }
    }
}

void
HierarchicalSearch::warmStart(const std::vector<MapSpace::Point> &points)
{
    if (degenerate_) {
        return;
    }
    // Scored ahead of the sweep; they compete for refinement slots.
    coarse_pending_.insert(coarse_pending_.begin(), points.begin(),
                           points.end());
}

void
HierarchicalSearch::buildRound(std::vector<MapSpace::Point> &out)
{
    if (!coarse_done_) {
        const std::size_t take =
            std::min(kHierarchicalRound,
                     coarse_pending_.size() - coarse_next_);
        out.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            out.push_back(coarse_pending_[coarse_next_ + i]);
        }
        return;
    }
    // Refinement: one full neighborhood per surviving incumbent,
    // streamed as a single round. The improve-or-retire decision per
    // incumbent falls at the round boundary.
    refine_slices_.clear();
    for (const Scored &inc : incumbents_) {
        const std::size_t begin = out.size();
        for (MapSpace::Point &p : space_.neighbors(inc.point)) {
            out.push_back(std::move(p));
        }
        refine_slices_.emplace_back(begin, out.size());
    }
    if (out.empty()) {
        // Every incumbent stalled (or is isolated): spend the rest of
        // the budget on seeded random exploration.
        incumbents_.clear();
        out.reserve(kHierarchicalRound);
        for (std::size_t i = 0; i < kHierarchicalRound; ++i) {
            out.push_back(nextSamplePoint());
        }
        refine_slices_.clear();
    }
}

void
HierarchicalSearch::roundComplete(
    const std::vector<MapSpace::Point> &points,
    const std::vector<double> &objectives)
{
    if (!coarse_done_) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            coarse_scored_.push_back(
                {points[i], objectives[i], next_order_++});
        }
        coarse_next_ += points.size();
        if (coarse_next_ < coarse_pending_.size()) {
            return;
        }
        // Coarse phase over: the best cells seed the refinement.
        coarse_done_ = true;
        std::sort(coarse_scored_.begin(), coarse_scored_.end(),
                  [](const Scored &a, const Scored &b) {
                      if (a.objective != b.objective) {
                          return a.objective < b.objective;
                      }
                      return a.order < b.order;
                  });
        for (const Scored &s : coarse_scored_) {
            if (!std::isfinite(s.objective) ||
                static_cast<int>(incumbents_.size()) >=
                    options_.refine_width) {
                break;
            }
            incumbents_.push_back(s);
        }
        coarse_scored_.clear();
        coarse_pending_.clear();
        return;
    }
    if (refine_slices_.empty()) {
        return;  // random fallback round: nothing to update
    }
    // Greedy step per incumbent: move to its best strictly improving
    // neighbor (ties broken by position), retire it otherwise.
    std::vector<Scored> survivors;
    for (std::size_t k = 0; k < incumbents_.size(); ++k) {
        const auto [begin, end] = refine_slices_[k];
        std::size_t best = begin;
        for (std::size_t i = begin; i < end; ++i) {
            if (objectives[i] < objectives[best]) {
                best = i;
            }
        }
        if (begin < end &&
            objectives[best] < incumbents_[k].objective) {
            survivors.push_back(
                {points[best], objectives[best], next_order_++});
        }
    }
    incumbents_ = std::move(survivors);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

namespace {

/** Warn once that a non-encodable space demotes coordinate-based
 *  strategies to seeded random sampling. */
void
warnNotEncodable(const MapSpace &space, const char *what)
{
    if (!space.pointEncodable()) {
        SL_WARN(what, ": the mapspace's tiling axes exceed the ",
                "materialization limits, so candidates cannot be ",
                "encoded as points; the search degenerates to pure ",
                "random sampling");
    }
}

} // namespace

std::unique_ptr<SearchStrategy>
makeSearchStrategy(SearchStrategyKind kind, const MapSpace &space,
                   std::uint64_t seed, std::int64_t budget,
                   const SearchTuning &tuning)
{
    if (kind == SearchStrategyKind::Auto) {
        const std::int64_t enumerable = space.size().enumerable;
        kind = (enumerable >= 0 && enumerable <= budget)
            ? SearchStrategyKind::Exhaustive
            : SearchStrategyKind::Random;
    }
    switch (kind) {
      case SearchStrategyKind::Random:
        return std::make_unique<RandomSearch>(space, seed);
      case SearchStrategyKind::Exhaustive:
        if (space.size().enumerable < 0) {
            SL_FATAL("exhaustive search requested but the mapspace is ",
                     "not enumerable (~", space.size().points,
                     " points exceed the materialization limits); ",
                     "use Random/Hybrid or raise MapSpaceOptions");
        }
        return std::make_unique<ExhaustiveSearch>(space);
      case SearchStrategyKind::Hybrid: {
        warnNotEncodable(space, "hybrid search");
        std::int64_t warmup = tuning.hybrid_warmup > 0
            ? tuning.hybrid_warmup
            : std::max<std::int64_t>(1, budget / 4);
        return std::make_unique<HybridSearch>(space, seed, warmup);
      }
      case SearchStrategyKind::Annealing:
        warnNotEncodable(space, "annealing search");
        return std::make_unique<AnnealingSearch>(space, seed, budget,
                                                 tuning.annealing);
      case SearchStrategyKind::Genetic:
        warnNotEncodable(space, "genetic search");
        return std::make_unique<GeneticSearch>(space, seed,
                                               tuning.genetic);
      case SearchStrategyKind::Hierarchical:
        warnNotEncodable(space, "hierarchical search");
        return std::make_unique<HierarchicalSearch>(
            space, seed, budget, tuning.hierarchical);
      case SearchStrategyKind::Auto:
        break;
    }
    SL_PANIC("unknown search strategy kind");
}

} // namespace sparseloop
