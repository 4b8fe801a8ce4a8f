/**
 * @file
 * Wire serialization implementation. The codecs mirror each struct's
 * field list (and its exact `operator==`); when a field is added to a
 * serialized type, extend the codec *and* bump the protocol/snapshot
 * version so stale peers and snapshot files are rejected instead of
 * misdecoded.
 */

#include "service/wire.hh"

#include <algorithm>
#include <utility>

namespace sparseloop {

// ---------------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------------

void
WireWriter::grow(std::size_t n)
{
    // Doubling keeps the zero-fill of each new reserve at amortized
    // O(1) per byte written; growing by exactly n would zero-fill
    // on every append.
    constexpr std::size_t kMinReserve = 64;
    buf_.resize(std::max({len_ + n, 2 * buf_.size(), kMinReserve}));
}

const std::vector<std::uint8_t> &
WireWriter::buffer()
{
    buf_.resize(len_);
    return buf_;
}

std::vector<std::uint8_t>
WireWriter::take()
{
    buf_.resize(len_);
    len_ = 0;
    return std::exchange(buf_, {});
}

// ---------------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------------

void
WireReader::truncated(std::size_t n) const
{
    throw WireError("truncated payload: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) + " of " +
                    std::to_string(size_));
}

std::string
WireReader::str()
{
    std::size_t n = count(1);
    return std::string(reinterpret_cast<const char *>(skip(n)), n);
}

std::size_t
WireReader::count(std::size_t min_element_bytes)
{
    std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        static_cast<std::uint64_t>(n) * min_element_bytes > remaining()) {
        throw WireError("corrupt element count " + std::to_string(n) +
                        ": exceeds the " + std::to_string(remaining()) +
                        " bytes remaining");
    }
    return static_cast<std::size_t>(n);
}

void
WireReader::expectDone(const char *what) const
{
    if (!done()) {
        throw WireError(std::string(what) + ": " +
                        std::to_string(remaining()) +
                        " trailing bytes after decode");
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

void
encode(WireWriter &w, const Mapping &mapping)
{
    w.u32(static_cast<std::uint32_t>(mapping.levelCount()));
    for (const LevelNest &nest : mapping.levels()) {
        w.u32(static_cast<std::uint32_t>(nest.loops.size()));
        for (const Loop &loop : nest.loops) {
            w.u32(static_cast<std::uint32_t>(loop.dim));
            w.i64(loop.bound);
            w.boolean(loop.spatial);
        }
        // An empty keep mask (keep-all) is distinct from an explicit
        // all-true mask in both signature() and operator==; preserve
        // the distinction across the wire.
        w.u32(static_cast<std::uint32_t>(nest.keep.size()));
        for (bool k : nest.keep) {
            w.boolean(k);
        }
    }
}

Mapping
decodeMapping(WireReader &r)
{
    std::size_t nlevels = r.count(8);
    std::vector<LevelNest> levels(nlevels);
    for (LevelNest &nest : levels) {
        std::size_t nloops = r.count(13);
        nest.loops.resize(nloops);
        for (Loop &loop : nest.loops) {
            loop.dim = static_cast<int>(r.u32());
            loop.bound = r.i64();
            loop.spatial = r.boolean();
        }
        std::size_t nkeep = r.count(1);
        nest.keep.resize(nkeep);
        for (std::size_t t = 0; t < nkeep; ++t) {
            nest.keep[t] = r.boolean();
        }
    }
    return Mapping(std::move(levels));
}

void
encode(WireWriter &w, const EvalKey &key)
{
    w.u64(key.engine);
    w.u64(key.workload);
    w.u64(key.mapping);
    w.u64(key.safs);
}

EvalKey
decodeEvalKey(WireReader &r)
{
    EvalKey k;
    k.engine = r.u64();
    k.workload = r.u64();
    k.mapping = r.u64();
    k.safs = r.u64();
    return k;
}

void
encode(WireWriter &w, const DenseKey &key)
{
    w.u64(key.engine);
    w.u64(key.workload);
    w.u64(key.mapping);
}

DenseKey
decodeDenseKey(WireReader &r)
{
    DenseKey k;
    k.engine = r.u64();
    k.workload = r.u64();
    k.mapping = r.u64();
    return k;
}

namespace {

void
encodeActionBreakdown(WireWriter &w, const ActionBreakdown &a)
{
    w.f64(a.actual);
    w.f64(a.gated);
    w.f64(a.skipped);
}

ActionBreakdown
decodeActionBreakdown(WireReader &r)
{
    ActionBreakdown a;
    a.actual = r.f64();
    a.gated = r.f64();
    a.skipped = r.f64();
    return a;
}

void
encodeInstances(WireWriter &w, const std::vector<std::int64_t> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (std::int64_t x : v) {
        w.i64(x);
    }
}

std::vector<std::int64_t>
decodeInstances(WireReader &r)
{
    std::size_t n = r.count(8);
    std::vector<std::int64_t> v(n);
    for (std::int64_t &x : v) {
        x = r.i64();
    }
    return v;
}

void
encodeTensorLevelDense(WireWriter &w, const TensorLevelDense &t)
{
    w.boolean(t.kept);
    w.f64(t.footprint);
    w.u32(static_cast<std::uint32_t>(t.tile_extents.size()));
    for (std::size_t i = 0; i < t.tile_extents.size(); ++i) {
        w.i64(t.tile_extents[i]);
    }
    w.f64(t.fills);
    w.f64(t.reads);
    w.f64(t.updates);
    w.f64(t.acc_reads);
    w.f64(t.drains);
}

TensorLevelDense
decodeTensorLevelDense(WireReader &r)
{
    TensorLevelDense t;
    t.kept = r.boolean();
    t.footprint = r.f64();
    std::size_t nranks = r.count(8);
    t.tile_extents.assign(nranks, 0);
    for (std::size_t i = 0; i < nranks; ++i) {
        t.tile_extents[i] = r.i64();
    }
    t.fills = r.f64();
    t.reads = r.f64();
    t.updates = r.f64();
    t.acc_reads = r.f64();
    t.drains = r.f64();
    return t;
}

void
encodeTensorLevelSparse(WireWriter &w, const TensorLevelSparse &t)
{
    encodeActionBreakdown(w, t.reads);
    encodeActionBreakdown(w, t.fills);
    encodeActionBreakdown(w, t.updates);
    encodeActionBreakdown(w, t.acc_reads);
    encodeActionBreakdown(w, t.drains);
    w.f64(t.meta_reads);
    w.f64(t.meta_fills);
    w.f64(t.meta_updates);
    w.f64(t.tile_data_words);
    w.f64(t.tile_metadata_words);
    w.f64(t.tile_worst_words);
    w.f64(t.tile_dense_words);
}

TensorLevelSparse
decodeTensorLevelSparse(WireReader &r)
{
    TensorLevelSparse t;
    t.reads = decodeActionBreakdown(r);
    t.fills = decodeActionBreakdown(r);
    t.updates = decodeActionBreakdown(r);
    t.acc_reads = decodeActionBreakdown(r);
    t.drains = decodeActionBreakdown(r);
    t.meta_reads = r.f64();
    t.meta_fills = r.f64();
    t.meta_updates = r.f64();
    t.tile_data_words = r.f64();
    t.tile_metadata_words = r.f64();
    t.tile_worst_words = r.f64();
    t.tile_dense_words = r.f64();
    return t;
}

/** Grid header shared by both traffic matrices; validates that
 *  rows*cols cells can possibly fit in the remaining bytes. */
std::pair<std::size_t, std::size_t>
decodeGridShape(WireReader &r, std::size_t min_cell_bytes)
{
    std::size_t rows = r.count(0);
    std::size_t cols = r.count(0);
    std::uint64_t cells = static_cast<std::uint64_t>(rows) * cols;
    if (cells > r.remaining() / min_cell_bytes) {
        throw WireError("corrupt traffic grid shape " +
                        std::to_string(rows) + "x" + std::to_string(cols));
    }
    return {rows, cols};
}

} // namespace

void
encode(WireWriter &w, const DenseTraffic &dense)
{
    w.u32(static_cast<std::uint32_t>(dense.levels.rows()));
    w.u32(static_cast<std::uint32_t>(dense.levels.cols()));
    for (const TensorLevelDense &t : dense.levels.flat()) {
        encodeTensorLevelDense(w, t);
    }
    w.f64(dense.computes);
    encodeInstances(w, dense.instances);
    w.i64(dense.compute_instances);
}

DenseTraffic
decodeDenseTraffic(WireReader &r)
{
    DenseTraffic dense;
    auto [rows, cols] = decodeGridShape(r, 50);
    dense.levels.assign(rows, cols);
    for (TensorLevelDense &t : dense.levels.flat()) {
        t = decodeTensorLevelDense(r);
    }
    dense.computes = r.f64();
    dense.instances = decodeInstances(r);
    dense.compute_instances = r.i64();
    return dense;
}

void
encode(WireWriter &w, const SparseTraffic &sparse)
{
    w.u32(static_cast<std::uint32_t>(sparse.levels.rows()));
    w.u32(static_cast<std::uint32_t>(sparse.levels.cols()));
    for (const TensorLevelSparse &t : sparse.levels.flat()) {
        encodeTensorLevelSparse(w, t);
    }
    encodeActionBreakdown(w, sparse.computes);
    w.f64(sparse.effectual_computes);
    encodeInstances(w, sparse.instances);
    w.i64(sparse.compute_instances);
}

SparseTraffic
decodeSparseTraffic(WireReader &r)
{
    SparseTraffic sparse;
    auto [rows, cols] = decodeGridShape(r, 150);
    sparse.levels.assign(rows, cols);
    for (TensorLevelSparse &t : sparse.levels.flat()) {
        t = decodeTensorLevelSparse(r);
    }
    sparse.computes = decodeActionBreakdown(r);
    sparse.effectual_computes = r.f64();
    sparse.instances = decodeInstances(r);
    sparse.compute_instances = r.i64();
    return sparse;
}

void
encode(WireWriter &w, const EvalResult &result)
{
    w.boolean(result.valid);
    w.str(result.invalid_reason);
    w.f64(result.cycles);
    w.f64(result.energy_pj);
    encodeActionBreakdown(w, result.computes);
    w.f64(result.effectual_computes);
    w.f64(result.compute_energy_pj);
    w.f64(result.compute_cycles);
    w.i64(result.compute_instances);
    w.u32(static_cast<std::uint32_t>(result.levels.size()));
    for (const LevelResult &level : result.levels) {
        w.str(level.name);
        w.f64(level.cycles);
        w.f64(level.energy_pj);
        w.f64(level.occupied_words);
        w.f64(level.worst_case_words);
        w.f64(level.bandwidth_demand);
    }
    encode(w, result.dense);
    encode(w, result.sparse);
}

EvalResult
decodeEvalResult(WireReader &r)
{
    EvalResult result;
    result.valid = r.boolean();
    result.invalid_reason = r.str();
    result.cycles = r.f64();
    result.energy_pj = r.f64();
    result.computes = decodeActionBreakdown(r);
    result.effectual_computes = r.f64();
    result.compute_energy_pj = r.f64();
    result.compute_cycles = r.f64();
    result.compute_instances = r.i64();
    std::size_t nlevels = r.count(44);
    result.levels.resize(nlevels);
    for (LevelResult &level : result.levels) {
        level.name = r.str();
        level.cycles = r.f64();
        level.energy_pj = r.f64();
        level.occupied_words = r.f64();
        level.worst_case_words = r.f64();
        level.bandwidth_demand = r.f64();
    }
    result.dense = decodeDenseTraffic(r);
    result.sparse = decodeSparseTraffic(r);
    return result;
}

void
encode(WireWriter &w, const MetricVector &metrics)
{
    for (double v : metrics.values) {
        w.f64(v);
    }
}

MetricVector
decodeMetricVector(WireReader &r)
{
    MetricVector m;
    for (double &v : m.values) {
        v = r.f64();
    }
    return m;
}

} // namespace sparseloop
