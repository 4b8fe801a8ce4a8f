/**
 * @file
 * Sharded two-level evaluation cache implementation.
 */

#include "model/eval_cache.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

DenseKey
DenseKey::of(const Engine &engine, const Workload &workload,
             const Mapping &mapping)
{
    return {engine.signature(), workload.signature(),
            mapping.signature()};
}

std::uint64_t
DenseKey::hash() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, engine);
    h = math::hashCombine(h, workload);
    return math::hashCombine(h, mapping);
}

EvalKey
EvalKey::of(const Engine &engine, const Workload &workload,
            const Mapping &mapping, const SafSpec &safs)
{
    return {engine.signature(), workload.signature(),
            mapping.signature(), safs.signature()};
}

std::uint64_t
EvalKey::hash() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, engine);
    h = math::hashCombine(h, workload);
    h = math::hashCombine(h, mapping);
    return math::hashCombine(h, safs);
}

EvalCache::EvalCache(EvalCacheOptions options) : options_(options)
{
    if (options_.shards <= 0) {
        SL_FATAL("EvalCache needs at least one shard, got ",
                 options_.shards);
    }
    shards_.reserve(static_cast<std::size_t>(options_.shards));
    for (int i = 0; i < options_.shards; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

EvalCache::Shard &
EvalCache::shardFor(std::uint64_t hash) const
{
    return *shards_[static_cast<std::size_t>(
        hash % static_cast<std::uint64_t>(shards_.size()))];
}

namespace {

/** Shared lock-lookup-count body of both cache levels. */
template <typename Map>
typename Map::mapped_type
findEntry(const Map &map, std::mutex &mutex,
          const typename Map::key_type &key,
          std::atomic<std::int64_t> &hits,
          std::atomic<std::int64_t> &misses)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = map.find(key);
    if (it == map.end()) {
        misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

/** An entry a store took out of, or kept out of, the cache. */
template <typename Map>
using Displaced = std::optional<
    std::pair<typename Map::key_type, typename Map::mapped_type>>;

/** Shared evict-emplace body of both cache levels; the caller must
 *  hold the shard mutex and pass the entry's precomputed key.hash().
 *  Returns the entry evicted to make room, or the incoming one when
 *  its key was already resident (the first value wins races), or
 *  nothing. */
template <typename Map>
Displaced<Map>
storeEntryLocked(Map &map, const typename Map::key_type &key,
                 std::uint64_t hash, typename Map::mapped_type value,
                 std::size_t max_entries)
{
    Displaced<Map> displaced;
    if (max_entries > 0 && map.size() >= max_entries &&
        map.find(key) == map.end()) {
        // Pseudo-random replacement: probe buckets starting from a
        // position derived from the incoming key's hash and evict the
        // first resident entry found. Deliberately NOT erase(begin()):
        // unordered_map iteration order correlates with insertion
        // recency (libstdc++ inserts at the head), which would pin the
        // oldest sweep's entries and churn every new one.
        const std::size_t buckets = map.bucket_count();
        std::size_t start = static_cast<std::size_t>(hash);
        for (std::size_t probe = 0; probe < buckets; ++probe) {
            std::size_t b = (start + probe) % buckets;
            auto it = map.begin(b);
            if (it != map.end(b)) {
                displaced.emplace(it->first, std::move(it->second));
                map.erase(displaced->first);
                break;
            }
        }
    }
    // try_emplace leaves `value` untouched when the key is resident.
    if (!map.try_emplace(key, std::move(value)).second) {
        displaced.emplace(key, std::move(value));
    }
    return displaced;
}

} // namespace

std::shared_ptr<const EvalResult>
EvalCache::findResult(const EvalKey &key) const
{
    return findResult(key, key.hash());
}

std::shared_ptr<const EvalResult>
EvalCache::findResult(const EvalKey &key, std::uint64_t hash) const
{
    Shard &shard = shardFor(hash);
    return findEntry(shard.results, shard.mutex, key, result_hits_,
                     result_misses_);
}

void
EvalCache::storeResult(const EvalKey &key,
                       std::shared_ptr<const EvalResult> result)
{
    storeResult(key, key.hash(), std::move(result));
}

void
EvalCache::storeResult(const EvalKey &key, std::uint64_t hash,
                       std::shared_ptr<const EvalResult> result)
{
    Shard &shard = shardFor(hash);
    Displaced<ResultMap> displaced;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        displaced = storeEntryLocked(shard.results, key, hash,
                                     std::move(result),
                                     options_.max_entries_per_shard);
    }
    if (displaced) {
        unpinDisplaced(displaced->first, displaced->second);
    }
}

void
EvalCache::unpinDisplaced(const EvalKey &key,
                          const std::shared_ptr<const EvalResult> &result)
{
    // Only an aliasing dense entry (or an in-flight caller) shares
    // ownership of a displaced result; a sole owner needs no lookup.
    if (result.use_count() == 1) {
        return;
    }
    const DenseTraffic *member = &result->dense;
    const DenseKey dense_key = key.densePrefix();
    Shard &shard = shardFor(dense_key.hash());
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.dense.find(dense_key);
    if (it != shard.dense.end() && it->second.get() == member) {
        it->second = std::make_shared<const DenseTraffic>(*member);
    }
}

std::shared_ptr<const DenseTraffic>
EvalCache::findDense(const DenseKey &key) const
{
    return findDense(key, key.hash());
}

std::shared_ptr<const DenseTraffic>
EvalCache::findDense(const DenseKey &key, std::uint64_t hash) const
{
    Shard &shard = shardFor(hash);
    return findEntry(shard.dense, shard.mutex, key, dense_hits_,
                     dense_misses_);
}

void
EvalCache::storeDense(const DenseKey &key,
                      std::shared_ptr<const DenseTraffic> dense)
{
    storeDense(key, key.hash(), std::move(dense));
}

void
EvalCache::storeDense(const DenseKey &key, std::uint64_t hash,
                      std::shared_ptr<const DenseTraffic> dense)
{
    Shard &shard = shardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    storeEntryLocked(shard.dense, key, hash, std::move(dense),
                     options_.max_entries_per_shard);
}

namespace {

/**
 * Merge @p entries into @p shards, locking each touched shard once;
 * @p store inserts one entry into a locked shard. Entries are visited
 * by (shard, position): every shard's entries together and in input
 * order. The ordering buffer is per thread and keeps its capacity
 * across batch-sized stores; a bulk load's larger one is freed.
 */
template <typename Entry, typename ShardPtr, typename Store>
void
storeGrouped(std::vector<Entry> &entries,
             const std::vector<ShardPtr> &shards, const Store &store)
{
    constexpr std::size_t kKeptOrderCapacity = 4096;
    thread_local std::vector<std::uint64_t> order;
    order.clear();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::uint64_t shard = entries[i].hash % shards.size();
        order.push_back(shard << 32 | static_cast<std::uint64_t>(i));
    }
    std::sort(order.begin(), order.end());
    for (std::size_t r = 0; r < order.size();) {
        const std::size_t s = static_cast<std::size_t>(order[r] >> 32);
        auto &shard = *shards[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (; r < order.size() &&
               static_cast<std::size_t>(order[r] >> 32) == s;
             ++r) {
            store(shard, entries[order[r] & 0xFFFFFFFFu]);
        }
    }
    entries.clear();
    if (order.capacity() > kKeptOrderCapacity) {
        std::vector<std::uint64_t>().swap(order);
    }
}

} // namespace

void
EvalCache::storeResults(std::vector<ResultEntry> &&entries)
{
    std::vector<Displaced<ResultMap>> displaced;
    storeGrouped(entries, shards_, [&](Shard &shard, ResultEntry &e) {
        auto out = storeEntryLocked(shard.results, e.key, e.hash,
                                    std::move(e.result),
                                    options_.max_entries_per_shard);
        if (out) {
            displaced.push_back(std::move(out));
        }
    });
    for (const Displaced<ResultMap> &out : displaced) {
        unpinDisplaced(out->first, out->second);
    }
}

void
EvalCache::storeDenses(std::vector<DenseEntry> &&entries)
{
    storeGrouped(entries, shards_, [&](Shard &shard, DenseEntry &e) {
        storeEntryLocked(shard.dense, e.key, e.hash, std::move(e.dense),
                         options_.max_entries_per_shard);
    });
}

std::vector<EvalCache::ResultEntry>
EvalCache::exportResults() const
{
    std::vector<ResultEntry> out;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.reserve(out.size() + shard->results.size());
        for (const auto &[key, value] : shard->results) {
            out.push_back({key, key.hash(), value});
        }
    }
    return out;
}

std::vector<EvalCache::DenseEntry>
EvalCache::exportDenses() const
{
    std::vector<DenseEntry> out;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.reserve(out.size() + shard->dense.size());
        for (const auto &[key, value] : shard->dense) {
            out.push_back({key, key.hash(), value});
        }
    }
    return out;
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats s;
    s.result_hits = result_hits_.load(std::memory_order_relaxed);
    s.result_misses = result_misses_.load(std::memory_order_relaxed);
    s.dense_hits = dense_hits_.load(std::memory_order_relaxed);
    s.dense_misses = dense_misses_.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        s.result_entries += shard->results.size();
        s.dense_entries += shard->dense.size();
    }
    return s;
}

void
EvalCache::clear()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->results.clear();
        shard->dense.clear();
    }
    result_hits_.store(0, std::memory_order_relaxed);
    result_misses_.store(0, std::memory_order_relaxed);
    dense_hits_.store(0, std::memory_order_relaxed);
    dense_misses_.store(0, std::memory_order_relaxed);
}

EvalResult
evaluateCached(const Engine &engine, EvalCache &cache,
               const Workload &workload, const Mapping &mapping,
               const SafSpec &safs)
{
    return evaluateCached(engine, cache,
                          EvalKey::of(engine, workload, mapping, safs),
                          workload, mapping, safs);
}

EvalResult
evaluateCached(const Engine &engine, EvalCache &cache, const EvalKey &key,
               const Workload &workload, const Mapping &mapping,
               const SafSpec &safs)
{
    if (auto hit = cache.findResult(key)) {
        return *hit;
    }
    const DenseKey dense_key = key.densePrefix();
    std::shared_ptr<const EvalResult> result;
    if (auto dense = cache.findDense(dense_key)) {
        result = std::make_shared<const EvalResult>(
            engine.evaluateFromDense(workload, mapping, safs, *dense));
    } else {
        // Cold path, as for a one-point batch group: the result owns
        // the dense traffic and the dense entry aliases it.
        result = std::make_shared<const EvalResult>(
            engine.evaluate(workload, mapping, safs));
        cache.storeDense(dense_key, std::shared_ptr<const DenseTraffic>(
                                        result, &result->dense));
    }
    cache.storeResult(key, result);
    return *result;
}

} // namespace sparseloop
