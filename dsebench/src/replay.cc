#include "replay.hh"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "service/client.hh"

namespace dsebench {

using namespace sparseloop;

namespace {

/** Timed passes per replay; the median pass is reported. */
constexpr int kPasses = 7;

/** Median seconds of @p passes runs of @p pass, each one span. */
template <typename Fn>
double
medianPass(const char *name, int passes, Fn &&pass)
{
    std::vector<double> secs;
    for (int i = 0; i < passes; ++i) {
        secs.push_back(timeSpan(name, pass));
    }
    return median(secs);
}

/** evaluateMappings over @p mappings in chunks of @p batch_size on a
 *  fresh evaluator with a private, empty cache. */
std::vector<EvalResult>
evaluateInBatches(const ReplayContext &ctx,
                  const std::vector<Mapping> &mappings, int batch_size,
                  int threads)
{
    BatchEvaluatorOptions bopts;
    bopts.num_threads = threads;
    BatchEvaluator evaluator(Engine(*ctx.arch), nullptr, bopts);
    std::vector<EvalResult> out;
    out.reserve(mappings.size());
    for (std::size_t i = 0; i < mappings.size();
         i += static_cast<std::size_t>(batch_size)) {
        std::vector<EvalResult> part = evaluator.evaluateMappings(
            *ctx.workload,
            pointers(mappings, i, i + static_cast<std::size_t>(batch_size)),
            *ctx.safs);
        for (EvalResult &r : part) {
            out.push_back(std::move(r));
        }
    }
    return out;
}

void
checkSame(CheckLedger &ledger, const char *what,
          const std::vector<EvalResult> &got,
          const std::vector<EvalResult> &want)
{
    std::size_t op = ledger.attempt();
    if (got.size() != want.size()) {
        ledger.fail(op, std::string(what) + ": result count differs");
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!bitIdentical(got[i], want[i])) {
            ledger.fail(op, std::string(what) + ": result " +
                                std::to_string(i) + " not bit-identical");
            return;
        }
    }
}

} // namespace

std::vector<const Mapping *>
pointers(const std::vector<Mapping> &mappings, std::size_t begin,
         std::size_t end)
{
    std::vector<const Mapping *> out;
    for (std::size_t i = begin; i < end && i < mappings.size(); ++i) {
        out.push_back(&mappings[i]);
    }
    return out;
}

std::vector<Mapping>
sampleMappings(const ReplayContext &ctx, std::size_t count,
               SeedStream &seeds)
{
    Engine engine(*ctx.arch);
    std::vector<Mapping> out;
    out.reserve(count);
    while (out.size() < count) {
        Mapping m = ctx.space->sampleMapping(seeds.next());
        try {
            engine.evaluate(*ctx.workload, m, *ctx.safs);
        } catch (const FatalError &) {
            continue;  // malformed for the engine; not a replay input
        }
        out.push_back(std::move(m));
    }
    return out;
}

void
replayEngineLayers(const std::vector<ReplayContext> &contexts,
                   int batch_size, std::uint64_t seed, CheckLedger &ledger,
                   MetricTable &out)
{
    constexpr std::size_t kPrimaryMappings = 256;
    const std::size_t per_context = std::max<std::size_t>(
        16, kPrimaryMappings / contexts.size());

    struct Replay
    {
        const ReplayContext *ctx;
        Engine engine;
        std::vector<Mapping> mappings;
        std::vector<DenseTraffic> dense;
        std::vector<SparseTraffic> sparse;
        std::vector<EvalResult> results;
    };
    SeedStream seeds(seed ^ 0x5EEDFACEull);
    std::vector<Replay> replays;
    std::size_t evals = 0;
    for (std::size_t c = 0; c < contexts.size(); ++c) {
        const ReplayContext &ctx = contexts[c];
        Replay r{&ctx, Engine(*ctx.arch), {}, {}, {}, {}};
        r.mappings = sampleMappings(
            ctx, c == 0 ? std::max(per_context, kPrimaryMappings)
                        : per_context,
            seeds);
        for (const Mapping &m : r.mappings) {
            r.dense.push_back(r.engine.analyzeDataflow(*ctx.workload, m));
            r.sparse.push_back(
                SparseAnalysis(*ctx.workload, *ctx.arch, m, *ctx.safs)
                    .analyze(r.dense.back()));
            r.results.push_back(
                r.engine.evaluate(*ctx.workload, m, *ctx.safs));
        }
        evals += r.mappings.size();
        replays.push_back(std::move(r));
    }
    const double n = static_cast<double>(evals);

    double t = medianPass("replay.engine_evaluate", kPasses, [&] {
        for (const Replay &r : replays) {
            for (const Mapping &m : r.mappings) {
                r.engine.evaluate(*r.ctx->workload, m, *r.ctx->safs);
            }
        }
    });
    out.add("engine.us_per_eval", t / n * 1e6, "us");

    t = medianPass("replay.analyze_dataflow", kPasses, [&] {
        for (const Replay &r : replays) {
            for (const Mapping &m : r.mappings) {
                r.engine.analyzeDataflow(*r.ctx->workload, m);
            }
        }
    });
    out.add("dataflow.us_per_eval", t / n * 1e6, "us");

    t = medianPass("replay.sparse_analyze", kPasses, [&] {
        for (const Replay &r : replays) {
            for (std::size_t i = 0; i < r.mappings.size(); ++i) {
                SparseAnalysis(*r.ctx->workload, *r.ctx->arch,
                               r.mappings[i], *r.ctx->safs)
                    .analyze(r.dense[i]);
            }
        }
    });
    out.add("sparse.us_per_eval", t / n * 1e6, "us");

    // Step 3 takes its traffic by value; the copies it consumes are
    // made outside the timed pass so only the moves are timed.
    std::vector<double> micro_secs;
    for (int p = 0; p < kPasses; ++p) {
        std::vector<std::vector<SparseTraffic>> sparse;
        std::vector<std::vector<DenseTraffic>> dense;
        for (const Replay &r : replays) {
            sparse.push_back(r.sparse);
            dense.push_back(r.dense);
        }
        std::vector<std::vector<EvalResult>> results(replays.size());
        for (std::size_t c = 0; c < replays.size(); ++c) {
            results[c].resize(replays[c].mappings.size());
        }
        micro_secs.push_back(timeSpan("replay.microarch_evaluate", [&] {
            for (std::size_t c = 0; c < replays.size(); ++c) {
                const Replay &r = replays[c];
                MicroArchModel micro(*r.ctx->arch, r.engine.energyModel());
                for (std::size_t i = 0; i < r.mappings.size(); ++i) {
                    results[c][i] = micro.evaluate(
                        std::move(sparse[c][i]), std::move(dense[c][i]),
                        r.engine.options().check_capacity);
                }
            }
        }));
        for (std::size_t c = 0; c < replays.size(); ++c) {
            checkSame(ledger, "MicroArchModel::evaluate replay", results[c],
                      replays[c].results);
        }
    }
    out.add("microarch.us_per_eval", median(micro_secs) / n * 1e6, "us");

    std::uint64_t sink = 0;
    t = medianPass("replay.eval_key", kPasses, [&] {
        for (const Replay &r : replays) {
            for (const Mapping &m : r.mappings) {
                sink ^= EvalKey::of(r.engine, *r.ctx->workload, m,
                                    *r.ctx->safs)
                            .hash();
            }
        }
    });
    out.add("cache.key_ns", t / n * 1e9, "ns");

    EvalCache cache;
    std::vector<std::vector<EvalKey>> keys;
    for (const Replay &r : replays) {
        keys.emplace_back();
        for (std::size_t i = 0; i < r.mappings.size(); ++i) {
            keys.back().push_back(EvalKey::of(r.engine, *r.ctx->workload,
                                              r.mappings[i], *r.ctx->safs));
            cache.storeResult(keys.back().back(),
                              std::make_shared<const EvalResult>(
                                  r.results[i]));
        }
    }
    std::int64_t misses = 0;
    t = medianPass("replay.cache_find_result", kPasses, [&] {
        for (const auto &ks : keys) {
            for (const EvalKey &k : ks) {
                misses += cache.findResult(k) == nullptr;
            }
        }
    });
    out.add("cache.lookup_ns", t / n * 1e9, "ns");
    if (misses != 0 || sink == 0) {
        ledger.fail(ledger.attempt(), "cache replay lost a stored key");
    }

    // Batch layer on the primary context, in the workload's batch
    // shape: 1-thread batch vs sequential engine, nproc vs 1 thread.
    const Replay &primary = replays.front();
    const ReplayContext &ctx = *primary.ctx;
    double seq = medianPass("replay.engine_evaluate_seq", kPasses, [&] {
        for (const Mapping &m : primary.mappings) {
            primary.engine.evaluate(*ctx.workload, m, *ctx.safs);
        }
    });
    std::vector<EvalResult> one, many;
    double batch1 = medianPass("replay.evaluate_mappings_1t", kPasses, [&] {
        one = evaluateInBatches(ctx, primary.mappings, batch_size, 1);
    });
    const int nproc = parallel::hardwareThreads();
    double batchn = medianPass("replay.evaluate_mappings_nt", kPasses, [&] {
        many = evaluateInBatches(ctx, primary.mappings, batch_size, nproc);
    });
    checkSame(ledger, "evaluateMappings(1 thread)", one, primary.results);
    checkSame(ledger, "evaluateMappings(nproc)", many, primary.results);
    out.add("batch.overhead_x", batch1 / seq, "x");
    out.add("batch.scaling_x", batch1 / batchn, "x");
}

DriverReplay
replayDriver(const std::vector<DriverJob> &jobs, bool sweep, int threads,
             CheckLedger &ledger)
{
    DriverReplay out;
    auto sweep_cache = std::make_shared<EvalCache>();
    auto sweep_pool = std::make_shared<WarmStartPool>();
    for (const DriverJob &job : jobs) {
        const ReplayContext &ctx = job.context;
        const MapperOptions &o = job.options;
        const ObjectiveSpec &spec = o.objective;
        SearchTuning tuning;
        tuning.hybrid_warmup = o.hybrid_warmup;
        tuning.annealing = o.annealing;
        tuning.genetic = o.genetic;
        tuning.hierarchical = o.hierarchical;
        auto strategy = makeSearchStrategy(o.strategy, *ctx.space, o.seed,
                                           o.samples, tuning);
        if (sweep) {
            std::vector<MapSpace::Point> starts;
            for (const Mapping &elite : sweep_pool->elites(spec)) {
                if (auto point = ctx.space->encode(elite)) {
                    starts.push_back(*std::move(point));
                }
            }
            if (!starts.empty()) {
                strategy->warmStart(starts);
            }
        }
        BatchEvaluatorOptions bopts;
        bopts.num_threads = threads;
        BatchEvaluator evaluator(Engine(*ctx.arch),
                                 sweep ? sweep_cache : nullptr, bopts);

        std::int64_t evaluated = 0, valid = 0, best_index = -1;
        MetricVector best_metrics;
        Mapping best;
        Span span("replay.driver_search");
        while (evaluated < o.samples) {
            int want = static_cast<int>(std::min<std::int64_t>(
                std::max(1, o.batch_size), o.samples - evaluated));
            std::vector<SearchCandidate> batch = strategy->propose(want);
            if (batch.empty()) {
                break;
            }
            std::vector<const Mapping *> mappings;
            for (const SearchCandidate &c : batch) {
                mappings.push_back(&c.mapping);
            }
            BatchStats stats;
            std::vector<EvalResult> evals = evaluator.evaluateMappings(
                *ctx.workload, mappings, *ctx.safs, &stats);
            out.batches.points += stats.points;
            out.batches.unique_points += stats.unique_points;
            out.batches.dense_groups += stats.dense_groups;
            ++out.batch_count;
            std::vector<double> objectives(
                batch.size(), std::numeric_limits<double>::infinity());
            for (std::size_t i = 0; i < evals.size(); ++i) {
                ++evaluated;
                if (!evals[i].valid) {
                    continue;
                }
                ++valid;
                const MetricVector metrics = MetricVector::of(evals[i]);
                objectives[i] = spec.scalarize(metrics);
                if (best_index < 0 || spec.better(metrics, batch[i].index,
                                                  best_metrics, best_index)) {
                    best = batch[i].mapping;
                    best_metrics = metrics;
                    best_index = batch[i].index;
                }
            }
            strategy->observe(batch, objectives);
        }
        span.finish();
        if (sweep && best_index >= 0) {
            sweep_pool->record(best, best_metrics,
                               spec.scalarize(best_metrics));
        }

        std::size_t op = ledger.attempt();
        const MapperResult *ref = job.reference;
        if (!ref || ref->candidates_evaluated != evaluated ||
            ref->candidates_valid != valid ||
            ref->found != (best_index >= 0) || !(ref->mapping == best)) {
            ledger.fail(op, ctx.name + ": driver replay diverges from "
                                       "Mapper::search");
        }
    }
    return out;
}

double
replayDriverOverhead(const DriverJob &job, int batch_size,
                     std::uint64_t seed)
{
    MapperOptions opts = job.options;
    opts.cache = nullptr;
    opts.warm_start = nullptr;
    const ReplayContext &ctx = job.context;
    Mapper mapper(*ctx.workload, *ctx.arch, *ctx.safs, opts);
    std::int64_t candidates = 0;
    double search = medianPass("replay.mapper_search_1t", 3, [&] {
        candidates = mapper.search().candidates_evaluated;
    });
    SeedStream seeds(seed ^ 0xD21BE5ull);
    std::vector<Mapping> mappings = sampleMappings(
        ctx, static_cast<std::size_t>(std::max<std::int64_t>(1, candidates)),
        seeds);
    double batch = medianPass("replay.driver_evaluate_mappings_1t", 3, [&] {
        evaluateInBatches(ctx, mappings, batch_size, 1);
    });
    return search / batch;
}

void
replayServiceLayers(const ReplayContext &ctx, std::uint64_t seed,
                    const std::string &out_dir, CheckLedger &ledger,
                    MetricTable &out)
{
    constexpr std::size_t kSnapshotMappings = 256;
    constexpr std::size_t kBatch = 64;
    constexpr int kRequests = 24;

    SeedStream seeds(seed ^ 0x5E2F1CEull);
    std::vector<Mapping> snap = sampleMappings(ctx, kSnapshotMappings, seeds);
    std::vector<Mapping> fresh =
        sampleMappings(ctx, kRequests * kBatch / 2, seeds);
    auto makeRegistry = [&] {
        auto registry = std::make_shared<ServiceRegistry>();
        registry->addContext(ServiceContextSpec{
            ctx.name, *ctx.workload, *ctx.arch, *ctx.safs, snap.front()});
        return registry;
    };

    const std::string path =
        out_dir + "/replay-" + std::to_string(::getpid()) + ".slsnap";
    auto source = makeRegistry();
    source->find(ctx.name)->evaluator->evaluateMappings(
        *ctx.workload, pointers(snap), *ctx.safs);
    SnapshotStats saved =
        saveSnapshot(path, source->cache(), &source->warmStart());

    std::vector<double> load_secs;
    for (int i = 0; i < kPasses; ++i) {
        EvalCache cache;
        WarmStartPool pool;
        SnapshotStats loaded;
        load_secs.push_back(timeSpan("replay.load_snapshot", [&] {
            loaded = loadSnapshot(path, cache, &pool);
        }));
        if (loaded.totalEntries() != saved.totalEntries() ||
            !loaded.error.empty()) {
            ledger.fail(ledger.attempt(), "snapshot restore incomplete");
        }
    }
    out.add("persistence.load_ms", median(load_secs) * 1e3, "ms");

    EvaluateBatchReply reply;
    reply.results = source->find(ctx.name)->evaluator->evaluateMappings(
        *ctx.workload, pointers(snap, 0, kBatch), *ctx.safs);
    reply.points = static_cast<std::int64_t>(kBatch);
    std::size_t bytes = 0;
    EvaluateBatchReply decoded;
    double codec = medianPass("replay.reply_codec", kPasses * 3, [&] {
        std::vector<std::uint8_t> payload = reply.encodePayload();
        bytes = payload.size();
        WireReader reader(payload);
        decoded = EvaluateBatchReply::decodePayload(reader);
    });
    checkSame(ledger, "EvaluateBatchReply round trip", decoded.results,
              reply.results);
    out.add("wire.reply_codec_us", codec * 1e6, "us");
    out.add("wire.reply_bytes", static_cast<double>(bytes), "bytes");

    // The server and the in-process oracle restore the same snapshot,
    // so each request's snapshot half hits and its fresh half misses
    // on both sides.
    auto served = makeRegistry();
    loadSnapshot(path, served->cache(), &served->warmStart());
    auto oracle = makeRegistry();
    loadSnapshot(path, oracle->cache(), &oracle->warmStart());
    std::remove(path.c_str());
    ServiceServer server(served);
    timeSpan("replay.server_start", [&] { server.start(); });
    ServiceClient client;
    client.connect("127.0.0.1", server.port());

    std::vector<double> ping_secs;
    for (int i = 0; i < 200; ++i) {
        ping_secs.push_back(timeSpan("replay.client_ping",
                                     [&] { client.ping(); }));
    }
    out.add("socket.ping_us", median(ping_secs) * 1e6, "us");

    std::vector<double> fracs;
    const BatchEvaluator &local = *oracle->find(ctx.name)->evaluator;
    for (int i = 0; i < kRequests; ++i) {
        std::vector<Mapping> batch;
        for (std::size_t j = 0; j < kBatch / 2; ++j) {
            batch.push_back(snap[seeds.next() % snap.size()]);
            batch.push_back(fresh[static_cast<std::size_t>(i) * kBatch / 2 + j]);
        }
        RequestScope request;
        std::vector<EvalResult> want, got;
        double inproc = timeSpan("replay.evaluate_mappings_inproc", [&] {
            want = local.evaluateMappings(*ctx.workload,
                                          pointers(batch),
                                          *ctx.safs);
        });
        double remote = timeSpan("replay.client_evaluate_batch", [&] {
            got = client.evaluateBatch(ctx.name, batch);
        });
        checkSame(ledger, "loopback evaluateBatch", got, want);
        fracs.push_back(inproc / remote);
    }
    out.add("server.compute_frac", median(fracs), "ratio");
    client.close();
    server.stop();
}

} // namespace dsebench
