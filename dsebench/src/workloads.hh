/**
 * @file
 * The benchmark's three workloads. Each one generates all of its
 * inputs from the workload seed, measures its set-up, runs a closed
 * loop for a fixed number of seconds, checks every output it timed,
 * and — in the traced mode — reports per-layer metrics from replays
 * of its own inputs.
 *
 *  - `search-cold`: one annealing `Mapper::searchWithThreads(nproc)`
 *    per (layer, design) job over ResNet-50 representative layers and
 *    AlexNet conv layers on SCNN and Eyeriss V2 PE, each with a
 *    private, empty cache. Nearly every candidate is new engine work.
 *  - `sweep-shared`: density sweeps over the Fig. 1 bitmask,
 *    coordinate-list and dense designs; each sweep shares one
 *    `EvalCache` and one `WarmStartPool`, both empty at its start.
 *    Key hashing, cache lookup, Step-1 reuse and warm starts dominate.
 *  - `daemon-loopback`: an in-process `ServiceServer` restored from a
 *    snapshot, driven by a closed loop over two `ServiceClient`
 *    connections: 64-mapping evaluate-batch requests (half hits from
 *    the snapshot, half fresh misses) with one search in twenty.
 */

#ifndef DSEBENCH_WORKLOADS_HH
#define DSEBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "util.hh"

namespace dsebench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Corrupt one checked output on purpose (tests the checker). */
    bool inject_fault = false;
    /** Scratch directory for the snapshot and the trace file. */
    std::string out_dir = ".";
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Untimed input generation, then the first timed set-ups. */
    virtual void setup() = 0;

    /**
     * Closed loop for @p seconds of host time (the daemon: a fixed
     * request sequence sized to about that); appends the workload's
     * end-to-end metrics (all but `peak_rss_mb`) to @p e2e. May be
     * called more than once; each call reports its own loop, and
     * `setup_s` over every set-up so far.
     */
    virtual void measure(double seconds, MetricTable &e2e) = 0;

    /** Output checks that run after the timed region. */
    virtual void finalChecks() = 0;

    /** Per-layer metrics from replays of this workload's inputs. */
    virtual void layers(MetricTable &out) = 0;
};

/** Names accepted by `makeWorkload`, in report order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p opts.workload; null for an unknown name. */
std::unique_ptr<BenchWorkload> makeWorkload(const RunOptions &opts,
                                            CheckLedger &ledger);

} // namespace dsebench

#endif // DSEBENCH_WORKLOADS_HH
