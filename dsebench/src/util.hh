/**
 * @file
 * Shared pieces of the end-to-end DSE benchmark: host-time clocks,
 * order statistics, seeded input derivation, the metric table that
 * ends every run, the failure ledger of the output checks, and the
 * span recorder of the traced mode.
 *
 * Tracing lives entirely in the benchmark's own files: spans wrap the
 * benchmark's calls into the library's public API, never code inside
 * `src/`. A span records a name, start, end, its parent span (the
 * enclosing span on the same thread) and a request id shared by every
 * span of one request. Spans stay in memory and are written out once,
 * when the run ends.
 */

#ifndef DSEBENCH_UTIL_HH
#define DSEBENCH_UTIL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dsebench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nearest-rank percentile (0 < @p p <= 100) of @p values. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/** SplitMix64: the seed derivation every generated input uses. */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();

  private:
    std::uint64_t state_;
};

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The metrics of one run, in report order. */
class MetricTable
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    const std::vector<Metric> &rows() const { return rows_; }
    /** Value of @p name; fatal when absent. */
    double get(const std::string &name) const;

  private:
    std::vector<Metric> rows_;
};

/**
 * Output-check ledger: every timed operation is attempted once; an
 * operation fails when any of its checks fails or it throws. Checks
 * may run after the timed region and refer back to the operation by
 * index.
 */
class CheckLedger
{
  public:
    /** Register one attempted operation; returns its index. */
    std::size_t attempt();
    /** Mark operation @p op failed (idempotent), logging @p why. */
    void fail(std::size_t op, const std::string &why);
    std::int64_t attempted() const;
    std::int64_t failed() const;

  private:
    mutable std::mutex mutex_;
    std::vector<bool> failed_;
    std::int64_t failed_count_ = 0;
};

/** One finished span. Times are ns since the tracer's epoch. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for a root span
    std::uint64_t request = 0; ///< 0 outside any request
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/** Per-name aggregate of a trace. */
struct SpanSummary
{
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    /** Duration minus the time covered by child spans. */
    double self_ms = 0.0;
};

/** Process-wide in-memory span store (off unless enabled). */
class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    std::uint64_t newRequestId() { return next_request_.fetch_add(1); }
    std::int64_t nowNs() const;
    std::uint64_t newSpanId() { return next_span_.fetch_add(1); }
    void record(SpanRecord span);

    std::size_t spanCount() const;
    /** Self and total time per span name, largest self time first. */
    std::vector<SpanSummary> summarize() const;
    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    Tracer();

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_request_{1};
    std::atomic<std::uint64_t> next_span_{1};
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span around one call, and the benchmark's one stopwatch: every
 * timed call is bracketed by a `Span`, whose `finish()` returns the
 * elapsed seconds whether or not tracing is on. With tracing on it
 * also records the span, nesting through a thread-local stack so a
 * span opened inside another on the same thread names it as parent.
 * Spans on one thread must finish in reverse order of creation.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span() { finish(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); returns its duration in seconds. */
    double finish();

  private:
    bool active_ = false;
    bool finished_ = false;
    SpanRecord rec_;
};

/** Seconds taken by @p fn, bracketed by a span named @p name. */
template <typename Fn>
double
timeSpan(const char *name, Fn &&fn)
{
    Span span(name);
    fn();
    return span.finish();
}

/** Sets the calling thread's request id for the spans in its scope. */
class RequestScope
{
  public:
    RequestScope();
    ~RequestScope();
    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    std::uint64_t saved_ = 0;
};

} // namespace dsebench

#endif // DSEBENCH_UTIL_HH
