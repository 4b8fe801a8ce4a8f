/**
 * @file
 * dsebench: the end-to-end DSE benchmark program.
 *
 *   dsebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out-dir <dir>] [--inject-fault]
 *
 * `--trace 0` measures the workload's end-to-end metrics with tracing
 * off. `--trace 1` runs the same loop twice for half the time each,
 * untraced then traced, reports the difference as the tracing
 * overhead, then replays the workload's inputs layer by layer and
 * reports the per-layer metrics, each span's self time, and writes
 * every span to `<out-dir>/trace-<workload>-<seed>.jsonl`.
 *
 * Every run checks the outputs it timed and ends its standard output
 * with one JSON line: {"correct", "attempted", "failed", "metrics"}.
 * The exit code is 0 only when no operation failed; 2 on bad usage.
 * `--inject-fault` corrupts one checked result on purpose, which must
 * surface as a failed operation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace dsebench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "dsebench: %s\nusage: dsebench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] [--inject-fault]\nworkloads:",
                 why);
    for (const std::string &name : workloadNames()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

void
printTable(const char *title, const MetricTable &table)
{
    std::printf("%s\n", title);
    for (const Metric &m : table.rows()) {
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

/**
 * A metric value as a JSON number that always reads back as a float:
 * `%.17g` prints whole values (such as an EDP above 2^53) without a
 * point, which JSON readers take for an integer. A value that is not
 * finite has no JSON spelling and is printed as null.
 */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::string text = buf;
    if (text.find_first_of(".e") == std::string::npos) text += ".0";
    return text;
}

void
printJson(const CheckLedger &ledger, const MetricTable &table)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<long long>(ledger.attempted()),
                static_cast<long long>(ledger.failed()));
    const char *sep = "";
    for (const Metric &m : table.rows()) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), jsonNumber(m.value).c_str(),
                    m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

int
run(const RunOptions &opts)
{
    CheckLedger ledger;
    std::unique_ptr<BenchWorkload> workload = makeWorkload(opts, ledger);
    if (!workload) {
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    std::printf("dsebench %s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);

    Tracer &tracer = Tracer::instance();
    MetricTable e2e;
    if (!opts.trace) {
        workload->setup();
        workload->measure(opts.seconds, e2e);
        workload->finalChecks();
        e2e.add("peak_rss_mb", peakRssMb(), "MB");
        printTable("end-to-end metrics (host time):", e2e);
        std::printf("output checks: %lld attempted, %lld failed\n",
                    static_cast<long long>(ledger.attempted()),
                    static_cast<long long>(ledger.failed()));
        printJson(ledger, e2e);
        return ledger.failed() == 0 ? 0 : 1;
    }

    // Traced mode: set-up traced, then the same loop untraced and
    // traced on the same seed, then the per-layer replays.
    tracer.setEnabled(true);
    workload->setup();
    tracer.setEnabled(false);
    MetricTable untraced, traced;
    workload->measure(opts.seconds / 2, untraced);
    tracer.setEnabled(true);
    workload->measure(opts.seconds / 2, traced);
    workload->finalChecks();
    MetricTable layers;
    workload->layers(layers);
    tracer.setEnabled(false);

    std::printf("tracing overhead (same seed, %g s each):\n",
                opts.seconds / 2);
    for (std::size_t i = 0; i < untraced.rows().size(); ++i) {
        const Metric &off = untraced.rows()[i];
        const Metric &on = traced.rows()[i];
        std::printf("  %-36s %14.6g -> %14.6g %s (%+.2f%%)\n",
                    off.name.c_str(), off.value, on.value, off.unit.c_str(),
                    off.value != 0.0 ? 100.0 * (on.value - off.value) /
                                           off.value
                                     : 0.0);
    }
    const char *key = "req_ms_p50";
    layers.add("trace.overhead_pct",
               100.0 * (traced.get(key) - untraced.get(key)) /
                   untraced.get(key),
               "%");
    layers.add("trace.spans", static_cast<double>(tracer.spanCount()),
               "count");

    std::printf("span self time (traced set-up, loop and replays):\n");
    std::printf("  %-36s %8s %12s %12s\n", "span", "count", "self_ms",
                "total_ms");
    for (const SpanSummary &s : tracer.summarize()) {
        std::printf("  %-36s %8lld %12.3f %12.3f\n", s.name.c_str(),
                    static_cast<long long>(s.count), s.self_ms, s.total_ms);
    }
    std::string trace_path = opts.out_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".jsonl";
    if (tracer.writeJsonLines(trace_path)) {
        std::printf("spans written to %s\n", trace_path.c_str());
    } else {
        std::fprintf(stderr, "dsebench: cannot write %s\n",
                     trace_path.c_str());
    }
    printTable("per-layer metrics (traced replays):", layers);
    std::printf("output checks: %lld attempted, %lld failed\n",
                static_cast<long long>(ledger.attempted()),
                static_cast<long long>(ledger.failed()));
    printJson(ledger, layers);
    return ledger.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--inject-fault") {
            opts.inject_fault = true;
            continue;
        }
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            have_seed = *end == '\0';
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            have_seconds = *end == '\0' && opts.seconds > 0.0;
        } else if (arg == "--trace") {
            have_trace = std::strcmp(value, "0") == 0 ||
                         std::strcmp(value, "1") == 0;
            opts.trace = std::strcmp(value, "1") == 0;
        } else if (arg == "--out-dir") {
            opts.out_dir = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        return usage("--seed, --seconds (> 0) and --trace (0|1) are required");
    }

    // An exception outside the per-operation checks (set-up, replays)
    // leaves no trustworthy result: report it and print none.
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dsebench: run aborted: %s\n", e.what());
        return 1;
    }
}
