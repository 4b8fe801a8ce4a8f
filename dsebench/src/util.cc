#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace dsebench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
SeedStream::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
MetricTable::add(const std::string &name, double value,
                 const std::string &unit)
{
    rows_.push_back({name, value, unit});
}

double
MetricTable::get(const std::string &name) const
{
    for (const Metric &m : rows_) {
        if (m.name == name) {
            return m.value;
        }
    }
    throw std::logic_error("dsebench: no metric named " + name);
}

std::size_t
CheckLedger::attempt()
{
    std::lock_guard<std::mutex> lock(mutex_);
    failed_.push_back(false);
    return failed_.size() - 1;
}

void
CheckLedger::fail(std::size_t op, const std::string &why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (op >= failed_.size() || failed_[op]) {
        return;
    }
    failed_[op] = true;
    ++failed_count_;
    std::fprintf(stderr, "dsebench: operation %zu failed: %s\n", op,
                 why.c_str());
}

std::int64_t
CheckLedger::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::int64_t>(failed_.size());
}

std::int64_t
CheckLedger::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_count_;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<std::uint64_t> t_span_stack;
thread_local std::uint64_t t_request = 0;

} // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<SpanSummary>
Tracer::summarize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of one span run on the parent's thread, one after the
    // other, so the time they cover is the sum of their durations.
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const SpanRecord &s : spans_) {
        if (s.parent != 0) {
            child_ns[s.parent] += s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, SpanSummary> by_name;
    for (const SpanRecord &s : spans_) {
        SpanSummary &sum = by_name[s.name];
        sum.name = s.name;
        ++sum.count;
        double dur_ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        auto it = child_ns.find(s.id);
        double covered_ms =
            it == child_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
        sum.total_ms += dur_ms;
        sum.self_ms += dur_ms - covered_ms;
    }
    std::vector<SpanSummary> out;
    for (auto &[name, sum] : by_name) {
        out.push_back(sum);
    }
    std::sort(out.begin(), out.end(),
              [](const SpanSummary &a, const SpanSummary &b) {
                  return a.self_ms > b.self_ms;
              });
    return out;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    for (const SpanRecord &s : spans_) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":"
            << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
}

Span::Span(const char *name)
{
    Tracer &tracer = Tracer::instance();
    active_ = tracer.enabled();
    if (active_) {
        rec_.id = tracer.newSpanId();
        rec_.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
        rec_.request = t_request;
        rec_.name = name;
        t_span_stack.push_back(rec_.id);
    }
    rec_.start_ns = tracer.nowNs();
}

double
Span::finish()
{
    if (!finished_) {
        finished_ = true;
        Tracer &tracer = Tracer::instance();
        rec_.end_ns = tracer.nowNs();
        if (active_) {
            t_span_stack.pop_back();
            tracer.record(rec_);
        }
    }
    return static_cast<double>(rec_.end_ns - rec_.start_ns) * 1e-9;
}

RequestScope::RequestScope() : saved_(t_request)
{
    t_request = Tracer::instance().newRequestId();
}

RequestScope::~RequestScope() { t_request = saved_; }

} // namespace dsebench
