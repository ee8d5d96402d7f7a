/**
 * @file
 * The benchmark's three workloads. Each builds its inputs from the seed
 * alone, drives the shipped stack through the public harness (World,
 * ServeWorld), checks the outcome, and returns host timings, simulated
 * metrics and per-layer counts for one repeat.
 */

#ifndef NEON_PERFBENCH_WORKLOADS_HH
#define NEON_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "neon/neon.hh"

namespace perfbench
{

/** How one repeat is driven. */
struct RunOptions
{
    /** Run in slices with a span per slice (span run only). */
    bool sliced = false;

    /** Parse every exported file (else only check its size). */
    bool validateExports = false;

    /** Directory for exported files (inside the checkout). */
    std::string outDir;
};

/** Outcome of one repeat of a workload. */
struct RepeatResult
{
    double constructS = 0.0;
    double startS = 0.0;
    double runS = 0.0;
    double resultsS = 0.0;
    double exportS = 0.0;

    double setupS() const { return constructS + startS; }
    double reportS() const { return resultsS + exportS; }
    double wallS() const { return setupS() + runS + reportS(); }

    /** Reference-core seconds per host second of this repeat (set by
     *  main() from the reference loop timed just before it). */
    double hostScale = 1.0;

    double simS = 0.0;            ///< simulated seconds run
    std::uint64_t events = 0;     ///< events executed
    std::size_t peakLive = 0;     ///< high-water mark of live events
    std::uint64_t ops = 0;        ///< sessions, or co-run tasks
    std::uint64_t served = 0;     ///< departed sessions, un-killed tasks
    std::uint64_t failedOps = 0;  ///< outcomes the workload disallows

    /** Hash of every per-session / per-task outcome. */
    std::string digest;

    /** Failed correctness checks (empty = correct). */
    std::vector<std::string> failures;

    /** Simulated end-to-end metrics (exact for a seed). */
    MetricTable sim;

    /** Simulated per-layer counts (exact for a seed). */
    MetricTable layer;

    /** Bytes written per export kind (overload_faulty_observed). */
    std::map<std::string, std::uint64_t> exportBytes;
};

/** A named workload. */
struct Workload
{
    std::string name;

    /** Canonical text of the configuration; hashed into the manifest. */
    std::string (*describe)(std::uint64_t seed);

    RepeatResult (*run)(std::uint64_t seed, const RunOptions &opts);
};

/** All workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &workloads();

/** The workload called @p name, or null. */
const Workload *findWorkload(const std::string &name);

// Shared by the layer ladder (probes.cc), which replays serve64's
// arrival stream one layer at a time.

/** serve64's configuration for a run ending at @p horizon. */
neon::ExperimentConfig serve64Config(std::uint64_t seed,
                                     neon::Tick horizon);

/** serve64's two serving classes. */
std::vector<neon::ServeWorkloadSpec> serve64Specs(neon::Tick arrivals_until);

/** serve64's mean number of sessions in service at its offered load. */
double serve64MeanConcurrency();

/** overload_faulty_observed's configuration (no output paths set). */
neon::ExperimentConfig overloadConfig(std::uint64_t seed);

/** Metric-name form of a policy ("disengaged_fq"). */
std::string schedMetricName(neon::SchedKind k);

/** Simulated counts every serving layer reports, from @p r. */
void serveLayerCounts(neon::ServeWorld &world, const neon::ServeRunResult &r,
                      MetricTable &out);

} // namespace perfbench

#endif // NEON_PERFBENCH_WORKLOADS_HH
