/**
 * @file
 * Per-layer replays of the traced mode. Each replay drives one
 * layer's public API on mappings drawn from a workload's own mapspace
 * with `MapSpace::sampleMapping` (seeded from the workload seed), in
 * the batch shapes the workload itself sends. Every timed pass is a
 * span, and each metric is computed from those spans' durations.
 */

#ifndef DSEBENCH_REPLAY_HH
#define DSEBENCH_REPLAY_HH

#include <cstdint>

#include "mapper/mapper.hh"
#include "util.hh"

namespace dsebench {

/** One (workload, design) point of a workload and its mapspace. */
struct ReplayContext
{
    std::string name;
    const sparseloop::Workload *workload = nullptr;
    const sparseloop::Architecture *arch = nullptr;
    const sparseloop::SafSpec *safs = nullptr;
    const sparseloop::MapSpace *space = nullptr;
};

/**
 * Step 1/2/3, whole-engine, key-hash and cache-lookup replays over
 * every context, plus the `BatchEvaluator` overhead (1 thread vs
 * sequential `Engine::evaluate`) and `ThreadPool` scaling (nproc vs 1
 * thread) on `contexts[0]` in batches of @p batch_size.
 *   dataflow/sparse/microarch/engine.us_per_eval, cache.key_ns,
 *   cache.lookup_ns, batch.overhead_x, batch.scaling_x
 */
void replayEngineLayers(const std::vector<ReplayContext> &contexts,
                        int batch_size, std::uint64_t seed,
                        CheckLedger &ledger, MetricTable &out);

/** One search a driver replay repeats (see `replayDriver`). */
struct DriverJob
{
    ReplayContext context;
    sparseloop::MapperOptions options;
    /** The real search's result, which the replay must reproduce. */
    const sparseloop::MapperResult *reference = nullptr;
};

/** `BatchStats` totals of a driver replay. */
struct DriverReplay
{
    sparseloop::BatchStats batches;  ///< summed over every batch
    std::int64_t batch_count = 0;
};

/**
 * Repeat @p jobs' searches in order with `Mapper::searchWithThreads`'s
 * own propose / `evaluateMappings` / observe loop at @p threads, to
 * record the `BatchStats` that `Mapper` does not expose. With
 * @p sweep every job shares one cache and one warm-start pool, both
 * empty at the start, as a sweep's searches do; otherwise each search
 * has a private cache and no pool. Each job is one checked operation:
 * its candidate counts and best mapping must equal its reference, so a
 * replay that no longer follows the real search fails.
 */
DriverReplay replayDriver(const std::vector<DriverJob> &jobs, bool sweep,
                          int threads, CheckLedger &ledger);

/**
 * `Mapper::search` (1 thread, private cache) time on @p job divided by
 * 1-thread `evaluateMappings` time for the same number of sampled
 * candidates in batches of @p batch_size: the driver's own cost
 * relative to the engine work it schedules.
 */
double replayDriverOverhead(const DriverJob &job, int batch_size,
                            std::uint64_t seed);

/**
 * Service layers on @p context: snapshot restore (`loadSnapshot`),
 * `EvaluateBatchReply` codec on 64 results, loopback `ping`, and the
 * in-process share of a client-observed 64-mapping request whose
 * mappings are half snapshot hits, half fresh misses.
 *   persistence.load_ms, wire.reply_codec_us, wire.reply_bytes,
 *   socket.ping_us, server.compute_frac
 * The snapshot file is written under @p out_dir and removed.
 */
void replayServiceLayers(const ReplayContext &context, std::uint64_t seed,
                         const std::string &out_dir, CheckLedger &ledger,
                         MetricTable &out);

/** Pointers to `mappings[begin, end)`, the shape the batch APIs take. */
std::vector<const sparseloop::Mapping *>
pointers(const std::vector<sparseloop::Mapping> &mappings,
         std::size_t begin = 0, std::size_t end = SIZE_MAX);

/** Sample @p count mappings the engine accepts (valid or not). */
std::vector<sparseloop::Mapping>
sampleMappings(const ReplayContext &context, std::size_t count,
               SeedStream &seeds);

} // namespace dsebench

#endif // DSEBENCH_REPLAY_HH
