#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <thread>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "common/thread_pool.hh"
#include "replay.hh"
#include "service/client.hh"

namespace dsebench {

using namespace sparseloop;

namespace {

/**
 * Set-up repetitions; `setup_s` is the median of every repetition in
 * the run. The host's speed drifts in phases of seconds, so every
 * workload repeats its set-up during the loop: search-cold
 * `kLoopSetups` times spread evenly over it, sweep-shared before every
 * sweep, the daemon `kRestartsPerRepeat` times before every repeat.
 */
constexpr int kLoopSetups = 30;
constexpr int kRestartsPerRepeat = 7;

int
nproc()
{
    return parallel::hardwareThreads();
}

/** Perturb one result so the bit-identity checks must catch it. */
void
corrupt(EvalResult &r)
{
    r.energy_pj = std::nextafter(r.energy_pj,
                                 std::numeric_limits<double>::infinity());
}

bool
sameSearch(const MapperResult &a, const MapperResult &b)
{
    return a.found == b.found && a.mapping == b.mapping &&
           bitIdentical(a.eval, b.eval) &&
           a.candidates_evaluated == b.candidates_evaluated &&
           a.candidates_valid == b.candidates_valid;
}

/** Counters of the searches one loop ran (for the traced layers). */
struct SearchTally
{
    std::int64_t searches = 0;
    std::int64_t evaluated = 0;
    std::int64_t valid = 0;
    std::int64_t warm = 0;

    void add(std::int64_t evaluated_now, std::int64_t valid_now,
             std::int64_t warm_now)
    {
        ++searches;
        evaluated += evaluated_now;
        valid += valid_now;
        warm += warm_now;
    }
    void add(const MapperResult &r)
    {
        add(r.candidates_evaluated, r.candidates_valid,
            r.warm_start_candidates);
    }
    void add(const SearchTally &t)
    {
        searches += t.searches;
        evaluated += t.evaluated;
        valid += t.valid;
        warm += t.warm;
    }
};

/** One search of a search workload: a design point plus options. */
struct SearchJob
{
    using Builder = apps::DesignPoint (*)(const Workload &);

    SearchJob(std::string job_name, Workload w, Builder build,
              MapperOptions opts)
        : name(std::move(job_name)), workload(std::move(w)),
          design(build(workload)), options(std::move(opts))
    {}

    std::string name;
    Workload workload;
    apps::DesignPoint design;
    MapperOptions options;
    std::unique_ptr<Mapper> mapper;
    /** The first result that passed its checks; later runs of the same
     *  search must reproduce it exactly. */
    std::optional<MapperResult> reference;

    ReplayContext context() const
    {
        return {name, &workload, &design.arch, &design.safs,
                &mapper->mapspace()};
    }
};

/**
 * (Re)build one Mapper per job from its current options, recording
 * each constructor's time in @p ctor_secs; returns their sum.
 */
double
buildMappers(std::vector<std::unique_ptr<SearchJob>> &jobs,
             std::vector<double> &ctor_secs)
{
    double sum = 0.0;
    for (auto &job : jobs) {
        job->mapper.reset();
        Span span("mapper.ctor");
        job->mapper = std::make_unique<Mapper>(
            job->workload, job->design.arch, job->design.safs, job->options);
        double s = span.finish();
        ctor_secs.push_back(s);
        sum += s;
    }
    return sum;
}

/**
 * Checks shared by both search workloads: the result must be found,
 * bit-identical to `Engine::evaluate` on the returned mapping, and
 * identical to every earlier run of the same search.
 */
void
checkSearch(SearchJob &job, MapperResult &r, std::size_t op,
            CheckLedger &ledger, bool &inject_fault)
{
    if (inject_fault) {
        inject_fault = false;
        corrupt(r.eval);
    }
    if (!r.found) {
        ledger.fail(op, job.name + ": no valid mapping found");
        return;
    }
    EvalResult want = Engine(job.design.arch)
                          .evaluate(job.workload, r.mapping, job.design.safs);
    if (!bitIdentical(want, r.eval)) {
        ledger.fail(op, job.name +
                            ": result differs from Engine::evaluate");
        return;
    }
    if (!job.reference) {
        job.reference = r;
    } else if (!sameSearch(*job.reference, r)) {
        ledger.fail(op, job.name + ": result differs from an earlier run");
    }
}

/**
 * The loop metrics every workload reports. A request is the user's
 * unit of work: one search in the search workloads, one daemon
 * request of either kind in daemon-loopback.
 */
void
addLoopMetrics(double req_ms_p50, double req_ms_p90, double req_per_s,
               double candidates_per_s, double best_edp, MetricTable &e2e)
{
    e2e.add("req_ms_p50", req_ms_p50, "ms");
    e2e.add("req_ms_p90", req_ms_p90, "ms");
    e2e.add("req_per_s", req_per_s, "1/s");
    e2e.add("candidates_per_s", candidates_per_s, "1/s");
    e2e.add("best_edp_geomean", best_edp, "pJ.cycles");
}

void
addTallyMetrics(const SearchTally &t, MetricTable &out)
{
    out.add("mapper.valid_frac",
            t.evaluated > 0 ? static_cast<double>(t.valid) / t.evaluated
                            : 0.0,
            "ratio");
    out.add("mapper.warm_candidates_per_search",
            t.searches > 0 ? static_cast<double>(t.warm) / t.searches : 0.0,
            "count");
}

void
addCacheMetrics(const EvalCacheStats &s, MetricTable &out)
{
    out.add("cache.result_hit_rate", s.resultHitRate(), "ratio");
    out.add("cache.result_lookups",
            static_cast<double>(s.result_hits + s.result_misses), "count");
    out.add("cache.dense_hit_rate", s.denseHitRate(), "ratio");
    out.add("cache.dense_lookups",
            static_cast<double>(s.dense_hits + s.dense_misses), "count");
    out.add("cache.entries",
            static_cast<double>(s.result_entries + s.dense_entries), "count");
}

/** Fold @p s into @p sum: counters add up, entries keep the largest
 *  cache's. */
void
addCacheStats(EvalCacheStats &sum, const EvalCacheStats &s)
{
    sum.result_hits += s.result_hits;
    sum.result_misses += s.result_misses;
    sum.dense_hits += s.dense_hits;
    sum.dense_misses += s.dense_misses;
    sum.result_entries = std::max(sum.result_entries, s.result_entries);
    sum.dense_entries = std::max(sum.dense_entries, s.dense_entries);
}

void
addBatchMetrics(const BatchStats &b, std::int64_t batches, MetricTable &out)
{
    double points = static_cast<double>(std::max<std::int64_t>(1, b.points));
    out.add("batch.mean_size",
            batches > 0 ? points / static_cast<double>(batches) : 0.0,
            "count");
    out.add("batch.unique_frac", b.unique_points / points, "ratio");
    out.add("batch.dense_groups_per_point", b.dense_groups / points,
            "ratio");
}

int
meanBatch(const DriverReplay &d)
{
    if (d.batch_count == 0) {
        return 1;
    }
    return std::max<int>(1, static_cast<int>(std::lround(
                                static_cast<double>(d.batches.points) /
                                static_cast<double>(d.batch_count))));
}

/**
 * The measured loop of both search workloads: rounds of one
 * `searchWithThreads(nproc)` per job, each checked, until @p seconds
 * have passed (at least one round). @p before_round runs untimed
 * before every round, given the seconds elapsed in the loop.
 *
 * Every repeat of a job is the same deterministic computation (the
 * checks prove it), and other tenants of the host can only add time
 * to it, so each search's time is taken as the fastest of its repeats
 * within the loop. Percentiles and rates are over the workload's
 * searches at those times; the all-repeat percentiles are printed
 * for reference.
 */
template <typename BeforeRound>
void
runSearchRounds(std::vector<std::unique_ptr<SearchJob>> &jobs,
                double seconds, CheckLedger &ledger, bool &inject_fault,
                SearchTally &tally, BeforeRound &&before_round,
                MetricTable &e2e)
{
    std::vector<double> best_ms(jobs.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<double> all_ms;
    const Clock::time_point start = Clock::now();
    do {
        before_round(secondsSince(start));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            SearchJob &job = *jobs[j];
            RequestScope request;
            std::size_t op = ledger.attempt();
            MapperResult r;
            try {
                Span span("mapper.search");
                r = job.mapper->searchWithThreads(nproc());
                all_ms.push_back(span.finish() * 1e3);
            } catch (const std::exception &e) {
                ledger.fail(op, job.name + ": " + e.what());
                continue;
            }
            best_ms[j] = std::min(best_ms[j], all_ms.back());
            tally.add(r);
            checkSearch(job, r, op, ledger, inject_fault);
        }
    } while (secondsSince(start) < seconds);

    double total_ms = 0.0, candidates = 0.0;
    std::vector<double> edps;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        total_ms += best_ms[j];
        if (jobs[j]->reference) {
            candidates += static_cast<double>(
                jobs[j]->reference->candidates_evaluated);
            edps.push_back(jobs[j]->reference->eval.edp());
        }
    }
    std::printf("%zu searches over %zu jobs; all repeats: p50 %.4g ms, "
                "p90 %.4g ms\n",
                all_ms.size(), jobs.size(), percentile(all_ms, 50),
                percentile(all_ms, 90));
    const double total_s = total_ms * 1e-3;
    addLoopMetrics(percentile(best_ms, 50), percentile(best_ms, 90),
                   static_cast<double>(jobs.size()) / total_s,
                   candidates / total_s, geomean(edps), e2e);
}

// ---------------------------------------------------------------------------
// search-cold
// ---------------------------------------------------------------------------

class SearchCold : public BenchWorkload
{
  public:
    SearchCold(const RunOptions &opts, CheckLedger &ledger)
        : opts_(opts), ledger_(ledger), inject_(opts.inject_fault)
    {}

    void setup() override
    {
        SeedStream seeds(opts_.seed);
        std::vector<ConvLayerShape> layers =
            apps::resnet50RepresentativeLayers();
        for (const ConvLayerShape &l : apps::alexnetConvLayers()) {
            layers.push_back(l);
        }
        for (const ConvLayerShape &layer : layers) {
            for (SearchJob::Builder build :
                 {apps::buildScnn, apps::buildEyerissV2Pe}) {
                MapperOptions mo;  // the library's default budget
                mo.strategy = SearchStrategyKind::Annealing;
                mo.seed = seeds.next();
                auto job = std::make_unique<SearchJob>(
                    layer.name, makeConv(layer), build, mo);
                job->name += "/" + job->design.name;
                jobs_.push_back(std::move(job));
            }
        }
        primary_ = static_cast<std::size_t>(seeds.next() % jobs_.size());
        setup_secs_.push_back(buildMappers(jobs_, ctor_secs_));
    }

    void measure(double seconds, MetricTable &e2e) override
    {
        tally_ = SearchTally{};
        double next_setup = seconds / kLoopSetups;
        auto before_round = [&](double elapsed) {
            if (elapsed >= next_setup) {
                setup_secs_.push_back(buildMappers(jobs_, ctor_secs_));
                next_setup += seconds / kLoopSetups;
            }
        };
        runSearchRounds(jobs_, seconds, ledger_, inject_, tally_,
                        before_round, e2e);
        e2e.add("setup_s", median(setup_secs_), "s");
    }

    void finalChecks() override
    {
        // A seeded sample of searches rerun single-threaded must equal
        // the nproc-thread result.
        SeedStream seeds(opts_.seed ^ 0x5A3F1Eull);
        for (int i = 0; i < 2; ++i) {
            SearchJob &job = *jobs_[seeds.next() % jobs_.size()];
            std::size_t op = ledger_.attempt();
            MapperResult r = job.mapper->search();
            if (!job.reference || !sameSearch(*job.reference, r)) {
                ledger_.fail(op, job.name +
                                     ": search() differs from "
                                     "searchWithThreads(nproc)");
            }
        }
    }

    void layers(MetricTable &out) override
    {
        std::vector<ReplayContext> contexts;
        contexts.push_back(jobs_[primary_]->context());
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (i != primary_) {
                contexts.push_back(jobs_[i]->context());
            }
        }
        const SearchJob &main = *jobs_[primary_];
        DriverJob primary{contexts.front(), main.options,
                          main.reference ? &*main.reference : nullptr};
        DriverReplay driver =
            replayDriver({primary}, false, nproc(), ledger_);
        const int batch = meanBatch(driver);
        replayEngineLayers(contexts, batch, opts_.seed, ledger_, out);
        addCacheMetrics(searchThroughFreshCaches(), out);
        addBatchMetrics(driver.batches, driver.batch_count, out);
        out.add("mapper.mapspace_build_ms", median(ctor_secs_) * 1e3, "ms");
        out.add("mapper.driver_overhead_x",
                replayDriverOverhead(primary, batch, opts_.seed), "x");
        addTallyMetrics(tally_, out);
        replayServiceLayers(contexts.front(), opts_.seed, opts_.out_dir,
                            ledger_, out);
    }

  private:
    /**
     * Every job's search once more, each through a fresh `EvalCache`
     * passed in `MapperOptions::cache`, and checked against its
     * reference; returns the caches' statistics.
     */
    EvalCacheStats searchThroughFreshCaches()
    {
        EvalCacheStats sum;
        for (const auto &job : jobs_) {
            MapperOptions o = job->options;
            o.cache = std::make_shared<EvalCache>();
            Mapper mapper(job->workload, job->design.arch, job->design.safs,
                          o);
            std::size_t op = ledger_.attempt();
            MapperResult r;
            {
                Span span("mapper.search");
                r = mapper.searchWithThreads(nproc());
            }
            if (!job->reference || !sameSearch(*job->reference, r)) {
                ledger_.fail(op, job->name + ": search through a fresh "
                                             "cache differs");
            }
            addCacheStats(sum, o.cache->stats());
        }
        return sum;
    }

    RunOptions opts_;
    CheckLedger &ledger_;
    bool inject_;
    std::vector<std::unique_ptr<SearchJob>> jobs_;
    std::size_t primary_ = 0;
    std::vector<double> ctor_secs_;
    std::vector<double> setup_secs_;
    SearchTally tally_;
};

// ---------------------------------------------------------------------------
// sweep-shared
// ---------------------------------------------------------------------------

constexpr double kSweepDensities[] = {0.1, 0.2, 0.3, 0.4,
                                     0.5, 0.6, 0.7, 0.8};
constexpr std::int64_t kSweepDim = 128;

class SweepShared : public BenchWorkload
{
  public:
    SweepShared(const RunOptions &opts, CheckLedger &ledger)
        : opts_(opts), ledger_(ledger), inject_(opts.inject_fault)
    {}

    void setup() override
    {
        // The densities are fixed so every seed sweeps the same points;
        // the seed draws the search seeds. The three designs at one
        // density share the search seed, as a sweep driver's would.
        SeedStream seeds(opts_.seed);
        for (double density : kSweepDensities) {
            std::uint64_t search_seed = seeds.next();
            Workload matmul = makeMatmul(kSweepDim, kSweepDim, kSweepDim);
            bindUniformDensities(matmul, {{"A", density}, {"B", 0.5}});
            char at[32];
            std::snprintf(at, sizeof at, "@A=%.3f", density);
            for (SearchJob::Builder build :
                 {apps::buildBitmaskDesign, apps::buildCoordListDesign,
                  apps::buildDenseBaselineDesign}) {
                MapperOptions mo;  // the library's default budget
                mo.strategy = SearchStrategyKind::Annealing;
                mo.seed = search_seed;
                auto job =
                    std::make_unique<SearchJob>("", matmul, build, mo);
                job->name = job->design.name + at;
                jobs_.push_back(std::move(job));
            }
        }
        setup_secs_.push_back(newSweep());
    }

    void measure(double seconds, MetricTable &e2e) override
    {
        tally_ = SearchTally{};
        cache_ = EvalCacheStats{};
        bool first = true;
        auto before_round = [&](double) {
            // Every sweep starts from an empty cache and pool, so every
            // sweep repeats the set-up; fold the previous sweep's cache
            // counters in first.
            if (!first) {
                addCacheStats(cache_, jobs_.front()->options.cache->stats());
            }
            first = false;
            setup_secs_.push_back(newSweep());
        };
        runSearchRounds(jobs_, seconds, ledger_, inject_, tally_,
                        before_round, e2e);
        addCacheStats(cache_, jobs_.front()->options.cache->stats());
        e2e.add("setup_s", median(setup_secs_), "s");
    }

    void finalChecks() override
    {
        // Rerun the first sweep point (empty cache and pool, as at the
        // start of every sweep) single-threaded.
        newSweep();
        SearchJob &job = *jobs_.front();
        std::size_t op = ledger_.attempt();
        MapperResult r = job.mapper->search();
        if (!job.reference || !sameSearch(*job.reference, r)) {
            ledger_.fail(op, job.name +
                                 ": search() differs from "
                                 "searchWithThreads(nproc)");
        }
    }

    void layers(MetricTable &out) override
    {
        std::vector<ReplayContext> contexts;
        std::vector<DriverJob> sweep;
        for (const auto &job : jobs_) {
            contexts.push_back(job->context());
            sweep.push_back({job->context(), job->options,
                             job->reference ? &*job->reference : nullptr});
        }
        DriverReplay driver = replayDriver(sweep, true, nproc(), ledger_);
        const int batch = meanBatch(driver);
        replayEngineLayers(contexts, batch, opts_.seed, ledger_, out);
        addCacheMetrics(cache_, out);
        addBatchMetrics(driver.batches, driver.batch_count, out);
        out.add("mapper.mapspace_build_ms", median(ctor_secs_) * 1e3, "ms");
        out.add("mapper.driver_overhead_x",
                replayDriverOverhead(sweep.front(), batch, opts_.seed), "x");
        addTallyMetrics(tally_, out);
        replayServiceLayers(contexts.front(), opts_.seed, opts_.out_dir,
                            ledger_, out);
    }

  private:
    /** Fresh shared cache and pool, one Mapper per sweep point;
     *  returns the summed constructor time. */
    double newSweep()
    {
        auto cache = std::make_shared<EvalCache>();
        auto pool = std::make_shared<WarmStartPool>();
        for (auto &job : jobs_) {
            job->options.cache = cache;
            job->options.warm_start = pool;
        }
        return buildMappers(jobs_, ctor_secs_);
    }

    RunOptions opts_;
    CheckLedger &ledger_;
    bool inject_;
    std::vector<std::unique_ptr<SearchJob>> jobs_;
    std::vector<double> ctor_secs_;
    std::vector<double> setup_secs_;
    SearchTally tally_;
    EvalCacheStats cache_;
};

// ---------------------------------------------------------------------------
// daemon-loopback
// ---------------------------------------------------------------------------

constexpr std::size_t kSnapshotPerContext = 256;
constexpr std::size_t kEvalBatch = 64;
constexpr int kConnections = 2;
/** One request in this many is a search. */
constexpr int kSearchEvery = 20;
/** Searches per connection whose best EDPs enter best_edp_geomean. */
constexpr std::size_t kEdpSearches = 15;
/**
 * Requests per connection per second of `--seconds`, split evenly over
 * the `kRepeats` repeats; sizes the loop to about `--seconds` on a
 * 4-core host.
 */
constexpr double kRequestsPerSecond = 420.0;
/** Enough requests per connection for its `kEdpSearches` searches. */
constexpr std::int64_t kMinRequests = kSearchEvery * kEdpSearches;
/** A repeat that overruns its share of `--seconds` this many times is
 *  cut short. */
constexpr double kOverrunLimit = 4.0;
/** Repeats of the request sequence in one loop. */
constexpr int kRepeats = 6;
/** Equal-count windows each repeat is cut into. */
constexpr std::size_t kWindows = 10;
/** Evaluate replies kept per connection for the oracle check. */
constexpr std::size_t kOracleSamples = 12;

/** One completed daemon request. */
struct Completion
{
    double at_s = 0.0;  ///< completion time since the repeat started
    double ms = 0.0;    ///< client-observed latency
    double candidates = 0.0;
};

/** The loop metrics of one window of requests. */
struct WindowStats
{
    double p50 = 0.0, p90 = 0.0, req_per_s = 0.0, cand_per_s = 0.0;
};

/** Cut one repeat, in completion order, into `kWindows` windows of
 *  equal request count. */
std::vector<WindowStats>
windowStats(std::vector<Completion> done)
{
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.at_s < b.at_s;
              });
    const std::size_t windows =
        std::max<std::size_t>(1, std::min(kWindows, done.size()));
    std::vector<WindowStats> out;
    double window_start = 0.0;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t begin = done.size() * w / windows;
        const std::size_t end = done.size() * (w + 1) / windows;
        std::vector<double> ms;
        double candidates = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            ms.push_back(done[i].ms);
            candidates += done[i].candidates;
        }
        const double window_end = end > 0 ? done[end - 1].at_s : 0.0;
        const double len = std::max(window_end - window_start, 1e-9);
        window_start = window_end;
        out.push_back({percentile(ms, 50), percentile(ms, 90),
                       static_cast<double>(ms.size()) / len,
                       candidates / len});
    }
    return out;
}

/**
 * The daemon's loop metrics from its repeats' windows. Every repeat
 * sends the same request sequence to a daemon freshly restored from
 * the same snapshot, so window k of every repeat follows the same
 * requests and cache contents: it is the same computation, and other
 * tenants of the host can only add time to it. So window k's figures
 * are the best over the repeats (lowest p50 and p90, highest rates),
 * as the search workloads take each search's fastest repeat, and each
 * metric is the median over the windows of the repeat, early (small
 * cache) and late (full cache) alike.
 */
void
addRepeatMetrics(const std::vector<std::vector<WindowStats>> &repeats,
                 double best_edp, MetricTable &e2e)
{
    std::vector<WindowStats> best;
    for (const std::vector<WindowStats> &windows : repeats) {
        for (std::size_t w = 0; w < windows.size(); ++w) {
            if (w == best.size()) {
                best.push_back(windows[w]);
                continue;
            }
            best[w].p50 = std::min(best[w].p50, windows[w].p50);
            best[w].p90 = std::min(best[w].p90, windows[w].p90);
            best[w].req_per_s =
                std::max(best[w].req_per_s, windows[w].req_per_s);
            best[w].cand_per_s =
                std::max(best[w].cand_per_s, windows[w].cand_per_s);
        }
    }
    std::vector<double> p50, p90, req_per_s, cand_per_s;
    for (const WindowStats &w : best) {
        p50.push_back(w.p50);
        p90.push_back(w.p90);
        req_per_s.push_back(w.req_per_s);
        cand_per_s.push_back(w.cand_per_s);
    }
    addLoopMetrics(median(p50), median(p90), median(req_per_s),
                   median(cand_per_s), best_edp, e2e);
}

class DaemonLoopback : public BenchWorkload
{
  public:
    DaemonLoopback(const RunOptions &opts, CheckLedger &ledger)
        : opts_(opts), ledger_(ledger), inject_(opts.inject_fault)
    {}

    ~DaemonLoopback() override
    {
        if (server_) {
            server_->stop();
        }
        std::remove(snapshot_path_.c_str());
    }

    void setup() override
    {
        // Untimed preparation: the snapshot a previous daemon would
        // have left behind, over the standard context set.
        specs_ = standardServiceContexts();
        SeedStream seeds(opts_.seed);
        auto source = makeRegistry();
        for (const ServiceContextSpec &spec : specs_) {
            MapperOptions mo;
            mappers_.push_back(std::make_unique<Mapper>(
                spec.workload, spec.arch, spec.safs, mo));
        }
        for (std::size_t c = 0; c < specs_.size(); ++c) {
            snapshot_set_.push_back(
                sampleMappings(context(c), kSnapshotPerContext, seeds));
            source->find(specs_[c].name)
                ->evaluator->evaluateMappings(specs_[c].workload,
                                              pointers(snapshot_set_.back()),
                                              specs_[c].safs);
        }
        snapshot_path_ = opts_.out_dir + "/daemon-" +
                         std::to_string(::getpid()) + ".slsnap";
        snapshot_entries_ =
            saveSnapshot(snapshot_path_, source->cache(), &source->warmStart())
                .totalEntries();

        setup_secs_.push_back(restartServer());
    }

    void measure(double seconds, MetricTable &e2e) override
    {
        const std::int64_t requests = std::max<std::int64_t>(
            kMinRequests,
            std::llround(seconds / kRepeats * kRequestsPerSecond));
        const double limit_s = kOverrunLimit * seconds / kRepeats;
        std::vector<std::vector<WindowStats>> repeats;
        std::vector<double> eval_ms, search_ms, edps;
        for (int rep = 0; rep < kRepeats; ++rep) {
            // Every repeat starts from a daemon freshly restored from
            // the snapshot.
            for (int i = 0; i < kRestartsPerRepeat; ++i) {
                setup_secs_.push_back(restartServer());
            }
            std::vector<Connection> conns = runRepeat(requests, limit_s);
            std::vector<Completion> done;
            for (Connection &conn : conns) {
                eval_ms.insert(eval_ms.end(), conn.eval_ms.begin(),
                               conn.eval_ms.end());
                search_ms.insert(search_ms.end(), conn.search_ms.begin(),
                                 conn.search_ms.end());
                if (rep == 0) {
                    // Every repeat's searches are the same.
                    edps.insert(edps.end(), conn.first_edps.begin(),
                                conn.first_edps.end());
                }
                done.insert(done.end(), conn.done.begin(), conn.done.end());
                batch_.points += conn.batch.points;
                batch_.unique_points += conn.batch.unique_points;
                batch_.dense_groups += conn.batch.dense_groups;
                batch_count_ += conn.batch_count;
                tally_.add(conn.tally);
                checkOracle(conn);
            }
            repeats.push_back(windowStats(std::move(done)));
        }
        std::printf("daemon loop: %d repeats, %zu evaluate-batch (p50 %.4g "
                    "ms, p99 %.4g ms), %zu search (p50 %.4g ms), %zu cache "
                    "entries at the end of a repeat\n",
                    kRepeats, eval_ms.size(), percentile(eval_ms, 50),
                    percentile(eval_ms, 99), search_ms.size(),
                    percentile(search_ms, 50),
                    registry_->cache().stats().result_entries);
        server_->stop();
        addRepeatMetrics(repeats, geomean(edps), e2e);
        e2e.add("setup_s", median(setup_secs_), "s");
    }

    void finalChecks() override {}

    void layers(MetricTable &out) override
    {
        std::vector<ReplayContext> contexts;
        for (std::size_t c = 0; c < specs_.size(); ++c) {
            contexts.push_back(context(c));
        }
        replayEngineLayers(contexts, static_cast<int>(kEvalBatch), opts_.seed,
                           ledger_, out);
        addCacheMetrics(registry_->cache().stats(), out);
        addBatchMetrics(batch_, batch_count_, out);

        // The daemon builds a Mapper per search request; replay those
        // constructions and the driver under the request's options.
        std::vector<double> ctor_secs;
        for (int rep = 0; rep < kRepeats * kRestartsPerRepeat; ++rep) {
            for (const ServiceContextSpec &spec : specs_) {
                ctor_secs.push_back(timeSpan("replay.mapper_ctor", [&] {
                    Mapper m(spec.workload, spec.arch, spec.safs,
                             searchOptions(opts_.seed));
                }));
            }
        }
        out.add("mapper.mapspace_build_ms", median(ctor_secs) * 1e3, "ms");
        // The daemon's searches run on one thread.
        const ServiceContextSpec &spec = specs_.front();
        const MapperOptions options = searchOptions(opts_.seed);
        MapperResult reference;
        {
            Span span("mapper.search");
            reference = Mapper(spec.workload, spec.arch, spec.safs, options)
                            .search();
        }
        DriverJob job{contexts.front(), options, &reference};
        DriverReplay driver = replayDriver({job}, false, 1, ledger_);
        out.add("mapper.driver_overhead_x",
                replayDriverOverhead(job, meanBatch(driver), opts_.seed), "x");
        addTallyMetrics(tally_, out);
        replayServiceLayers(contexts.front(), opts_.seed, opts_.out_dir,
                            ledger_, out);
    }

  private:
    struct EvalSample
    {
        std::size_t op = 0;
        std::size_t ctx = 0;
        std::vector<Mapping> mappings;
        std::vector<EvalResult> results;
    };
    struct SearchSample
    {
        std::size_t op = 0;
        std::size_t ctx = 0;
        MapperOptions options;
        SearchReply reply;
    };
    struct Connection
    {
        ServiceClient client;
        SeedStream rng{0};
        std::string connect_error;
        std::vector<double> eval_ms, search_ms;
        std::vector<Completion> done;
        /** Best EDP of this connection's first searches, whose
         *  (context, seed) sequence is fixed by the workload seed. */
        std::vector<double> first_edps;
        BatchStats batch;
        std::int64_t batch_count = 0;
        SearchTally tally;
        std::vector<EvalSample> evals;
        std::vector<SearchSample> searches;
    };

    /** Replace the daemon by a fresh one restored from the snapshot;
     *  returns the timed part: snapshot restore plus server start. */
    double restartServer()
    {
        if (server_) {
            server_->stop();
            server_.reset();
        }
        registry_ = makeRegistry();
        std::size_t op = ledger_.attempt();
        SnapshotStats loaded;
        Span span("daemon.setup");
        {
            Span load("persistence.load");
            loaded = loadSnapshot(snapshot_path_, registry_->cache(),
                                  &registry_->warmStart());
        }
        server_ = std::make_unique<ServiceServer>(registry_);
        {
            Span start("server.start");
            server_->start();
        }
        double secs = span.finish();
        if (loaded.totalEntries() != snapshot_entries_ ||
            !loaded.error.empty()) {
            ledger_.fail(op, "snapshot restore incomplete: " + loaded.error);
        }
        return secs;
    }

    /** A search request's options: the client's default budget. */
    static MapperOptions searchOptions(std::uint64_t seed)
    {
        MapperOptions o;
        o.samples = static_cast<int>(ClientSearchOptions{}.samples);
        o.seed = seed;
        o.strategy = SearchStrategyKind::Annealing;
        return o;
    }

    std::shared_ptr<ServiceRegistry> makeRegistry() const
    {
        auto registry = std::make_shared<ServiceRegistry>();
        for (const ServiceContextSpec &spec : specs_) {
            registry->addContext(spec);
        }
        return registry;
    }

    ReplayContext context(std::size_t c) const
    {
        const ServiceContextSpec &spec = specs_[c];
        return {spec.name, &spec.workload, &spec.arch, &spec.safs,
                &mappers_[c]->mapspace()};
    }

    /** One repeat: @p requests per connection over `kConnections`
     *  connections to the running daemon, in a closed loop. */
    std::vector<Connection> runRepeat(std::int64_t requests, double limit_s)
    {
        std::vector<Connection> conns(kConnections);
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        Clock::time_point start;
        std::atomic<bool> go{false};
        for (int c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                Connection &conn = conns[static_cast<std::size_t>(c)];
                conn.rng =
                    SeedStream(opts_.seed * 31 + static_cast<unsigned>(c));
                try {
                    conn.client.connect("127.0.0.1", server_->port());
                } catch (const std::exception &e) {
                    conn.connect_error = e.what();
                }
                ready.fetch_add(1);
                while (!go.load()) {
                    std::this_thread::yield();
                }
                if (conn.connect_error.empty()) {
                    runConnection(conn, start, requests, limit_s, c);
                }
            });
        }
        while (ready.load() < kConnections) {
            std::this_thread::yield();
        }
        start = Clock::now();
        go.store(true);
        for (std::thread &t : threads) {
            t.join();
        }
        const double elapsed = secondsSince(start);
        if (elapsed > limit_s) {
            std::fprintf(stderr,
                         "dsebench: daemon repeat cut short after %.1f s\n",
                         elapsed);
        }
        for (Connection &conn : conns) {
            if (!conn.connect_error.empty()) {
                ledger_.fail(ledger_.attempt(),
                             "connect: " + conn.connect_error);
            }
        }
        return conns;
    }

    void runConnection(Connection &conn, Clock::time_point start,
                       std::int64_t requests, double limit_s, int index)
    {
        const int phase = index * (kSearchEvery / kConnections);
        for (std::int64_t i = 0;
             i < requests && secondsSince(start) < limit_s; ++i) {
            // Searches rotate over the contexts so the first ones, which
            // enter best_edp_geomean, cover every design on every seed.
            const bool search = i % kSearchEvery == phase;
            const std::size_t c =
                search ? static_cast<std::size_t>(i / kSearchEvery + index) %
                             specs_.size()
                       : conn.rng.next() % specs_.size();
            const std::string &name = specs_[c].name;
            RequestScope request;
            std::size_t op = ledger_.attempt();
            try {
                if (search) {
                    MapperOptions mo = searchOptions(conn.rng.next());
                    ClientSearchOptions so;
                    so.samples = static_cast<std::uint32_t>(mo.samples);
                    so.seed = mo.seed;
                    so.strategy = mo.strategy;
                    so.batch_size = static_cast<std::uint32_t>(mo.batch_size);
                    so.threads = 1;
                    Span span("client.search");
                    SearchReply reply = conn.client.search(name, so);
                    conn.search_ms.push_back(span.finish() * 1e3);
                    conn.done.push_back(
                        {secondsSince(start), conn.search_ms.back(),
                         static_cast<double>(reply.candidates_evaluated)});
                    conn.tally.add(reply.candidates_evaluated,
                                   reply.candidates_valid,
                                   reply.warm_start_candidates);
                    if (!reply.found) {
                        ledger_.fail(op, name + ": search found nothing");
                        continue;
                    }
                    if (conn.first_edps.size() < kEdpSearches) {
                        conn.first_edps.push_back(reply.eval.edp());
                    }
                    if (conn.searches.size() < kOracleSamples / 4) {
                        conn.searches.push_back(
                            {op, c, mo, std::move(reply)});
                    }
                } else {
                    // Half snapshot members (hits), half fresh (misses),
                    // interleaved; built before the request is timed.
                    std::vector<Mapping> batch;
                    const auto &snap = snapshot_set_[c];
                    for (std::size_t j = 0; j < kEvalBatch / 2; ++j) {
                        batch.push_back(snap[conn.rng.next() % snap.size()]);
                        batch.push_back(mappers_[c]->mapspace().sampleMapping(
                            conn.rng.next()));
                    }
                    EvaluateBatchReply stats;
                    Span span("client.evaluate_batch");
                    std::vector<EvalResult> results =
                        conn.client.evaluateBatch(name, batch, &stats);
                    conn.eval_ms.push_back(span.finish() * 1e3);
                    conn.done.push_back({secondsSince(start),
                                         conn.eval_ms.back(),
                                         static_cast<double>(stats.points)});
                    conn.batch.points += stats.points;
                    conn.batch.unique_points += stats.unique_points;
                    conn.batch.dense_groups += stats.dense_groups;
                    ++conn.batch_count;
                    if (results.size() != batch.size()) {
                        ledger_.fail(op, name + ": wrong result count");
                    } else if (conn.evals.size() < kOracleSamples &&
                               conn.rng.next() % 8 == 0) {
                        conn.evals.push_back(
                            {op, c, std::move(batch), std::move(results)});
                    }
                }
            } catch (const std::exception &e) {
                ledger_.fail(op, name + ": " + e.what());
            }
        }
    }

    /** Sampled replies against in-process oracles on private caches. */
    void checkOracle(Connection &conn)
    {
        for (EvalSample &s : conn.evals) {
            if (inject_) {
                inject_ = false;
                corrupt(s.results.front());
            }
            const ServiceContextSpec &spec = specs_[s.ctx];
            BatchEvaluator oracle{Engine(spec.arch)};
            std::vector<EvalResult> want = oracle.evaluateMappings(
                spec.workload, pointers(s.mappings), spec.safs);
            for (std::size_t i = 0; i < want.size(); ++i) {
                if (!bitIdentical(want[i], s.results[i])) {
                    ledger_.fail(s.op, spec.name +
                                           ": evaluate reply differs from "
                                           "in-process evaluateMappings");
                    break;
                }
            }
        }
        for (SearchSample &s : conn.searches) {
            const ServiceContextSpec &spec = specs_[s.ctx];
            MapperResult want =
                Mapper(spec.workload, spec.arch, spec.safs, s.options)
                    .search();
            if (want.found != s.reply.found ||
                !(want.mapping == s.reply.mapping) ||
                !bitIdentical(want.eval, s.reply.eval) ||
                want.candidates_evaluated != s.reply.candidates_evaluated ||
                want.candidates_valid != s.reply.candidates_valid) {
                ledger_.fail(s.op, spec.name +
                                       ": search reply differs from "
                                       "in-process Mapper::search");
            }
        }
    }

    RunOptions opts_;
    CheckLedger &ledger_;
    bool inject_;
    std::vector<ServiceContextSpec> specs_;
    std::vector<std::unique_ptr<Mapper>> mappers_;
    std::vector<std::vector<Mapping>> snapshot_set_;
    std::string snapshot_path_;
    std::shared_ptr<ServiceRegistry> registry_;
    std::unique_ptr<ServiceServer> server_;
    std::size_t snapshot_entries_ = 0;
    std::vector<double> setup_secs_;
    BatchStats batch_;
    std::int64_t batch_count_ = 0;
    SearchTally tally_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "search-cold", "sweep-shared", "daemon-loopback"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const RunOptions &opts, CheckLedger &ledger)
{
    if (opts.workload == "search-cold") {
        return std::make_unique<SearchCold>(opts, ledger);
    }
    if (opts.workload == "sweep-shared") {
        return std::make_unique<SweepShared>(opts, ledger);
    }
    if (opts.workload == "daemon-loopback") {
        return std::make_unique<DaemonLoopback>(opts, ledger);
    }
    return nullptr;
}

} // namespace dsebench
