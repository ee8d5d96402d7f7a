/**
 * @file
 * Machine-readable performance report for the simulation core.
 *
 * Runs the event-core microbenchmark cases (schedule/run,
 * schedule/cancel churn, fleet-scale interleave) plus an end-to-end
 * Disengaged Fair Queueing experiment, and writes a BENCH_simcore.json
 * with events/sec, simulated-ms per wall-second, and peak live event
 * counts. Subsequent PRs regress against this trajectory; the CI
 * perf-smoke job fails the build if throughput drops below a floor.
 *
 * Deliberately self-contained (std::chrono, no google-benchmark) so it
 * builds and runs everywhere the library does.
 *
 * Usage: bench_perf_report [--out PATH] [--floor EVENTS_PER_SEC]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "neon/neon.hh"
#include "simcore_cases.hh"

namespace
{

using namespace neon;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Outcome of one timed case. */
struct CaseResult
{
    std::uint64_t items = 0;  ///< events (or ops) executed
    double wallS = 0.0;
    double itemsPerSec = 0.0;
    std::size_t peakLive = 0;
    std::uint64_t compactions = 0;
};

/** Time repeated batches of @p batch until ~minS wall seconds pass. */
template <typename Batch>
CaseResult
timeCase(double min_s, Batch &&batch)
{
    CaseResult r;
    const auto t0 = Clock::now();
    do {
        EventQueue eq;
        r.items += batch(eq);
        const auto st = eq.stats();
        r.peakLive = std::max(r.peakLive, st.peakLive);
        r.compactions += st.compactions;
    } while (secondsSince(t0) < min_s);
    r.wallS = secondsSince(t0);
    r.itemsPerSec = static_cast<double>(r.items) / r.wallS;
    return r;
}

/** End-to-end: a busy two-task world under Disengaged Fair Queueing. */
struct EndToEnd
{
    double simMs = 0.0;
    double wallS = 0.0;  ///< measured run interval only
    double setupS = 0.0; ///< world construction + start (excluded)
    double simMsPerWallS = 0.0;
    std::uint64_t events = 0;
    std::size_t peakLive = 0;
};

/** End-to-end serving: open Poisson load over a 4-device DFQ fleet. */
struct EndToEndServe
{
    double simMs = 0.0;
    double wallS = 0.0;  ///< measured run interval only
    double setupS = 0.0; ///< world construction + start (excluded)
    double simMsPerWallS = 0.0;
    double sessionsPerWallS = 0.0;
    std::uint64_t sessions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t events = 0;
};

EndToEndServe
endToEndServe()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.25, 1.0, 1.0, 0.75};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.measure = sec(2);

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    const ServeWorkloadSpec spec{w, ArrivalSpec::poisson(80.0, sec(1)),
                                 LifetimeSpec::fixed(msec(200))};

    // Setup (world assembly, kernel start) is timed separately so the
    // measured interval is pure simulation.
    EndToEndServe r;
    const auto c0 = Clock::now();
    ServeWorld world(cfg, {spec});
    world.start();
    r.setupS = secondsSince(c0);

    const auto t0 = Clock::now();
    world.runFor(cfg.measure);
    r.wallS = secondsSince(t0);
    const ServeRunResult res = world.results();

    r.simMs = toMsec(cfg.measure);
    r.simMsPerWallS = r.simMs / r.wallS;
    r.sessions = res.departures;
    r.sessionsPerWallS = static_cast<double>(res.departures) / r.wallS;
    r.migrations = res.migrations;
    r.events = world.eventsExecuted();

    if (res.departures == 0 || res.queuedAtEnd != 0) {
        std::cerr << "perf_report: serving run did not drain\n";
        std::exit(2);
    }
    return r;
}

EndToEnd
endToEndDfq()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.warmup = msec(50);
    cfg.measure = msec(500);

    EndToEnd r;
    const auto c0 = Clock::now();
    World w(cfg);
    w.spawn(WorkloadSpec::app("DCT"));
    w.spawn(WorkloadSpec::throttle(usec(430)));
    w.start();
    r.setupS = secondsSince(c0);

    const auto t0 = Clock::now();
    w.runFor(cfg.warmup);
    w.beginMeasurement();
    w.runFor(cfg.measure);
    r.wallS = secondsSince(t0);
    const RunResult res = w.results();

    r.simMs = toMsec(cfg.warmup + cfg.measure);
    r.simMsPerWallS = r.simMs / r.wallS;
    r.events = w.eq.executed();
    r.peakLive = w.eq.stats().peakLive;

    if (res.deviceBusy <= 0) {
        std::cerr << "perf_report: end-to-end run did no device work\n";
        std::exit(2);
    }
    return r;
}

void
emitCase(std::ostream &os, const char *name, const CaseResult &r,
         bool last = false)
{
    os << "    \"" << name << "\": {\n"
       << "      \"items\": " << r.items << ",\n"
       << "      \"wall_s\": " << r.wallS << ",\n"
       << "      \"events_per_sec\": " << r.itemsPerSec << ",\n"
       << "      \"peak_live_events\": " << r.peakLive << ",\n"
       << "      \"compactions\": " << r.compactions << "\n"
       << "    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_simcore.json";
    double floor_eps = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--floor" && i + 1 < argc) {
            floor_eps = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--out PATH] [--floor EVENTS_PER_SEC]\n";
            return 2;
        }
    }

    // Same workloads as the google-benchmark cases (shared via
    // simcore_cases.hh), at a larger batch size.
    constexpr double minS = 0.5;
    constexpr int batchN = 4096;
    std::cerr << "running schedule_run...\n";
    const CaseResult schedule_run = timeCase(minS, [](EventQueue &eq) {
        return neonbench::scheduleRunBatch(eq, batchN);
    });
    std::cerr << "running schedule_cancel_churn...\n";
    const CaseResult churn = timeCase(minS, [](EventQueue &eq) {
        return neonbench::scheduleCancelChurnBatch(eq, batchN);
    });
    std::cerr << "running fleet_interleave...\n";
    const CaseResult fleet = timeCase(minS, [](EventQueue &eq) {
        return neonbench::fleetInterleaveBatch(eq, 512);
    });
    std::cerr << "running end_to_end_dfq...\n";
    const EndToEnd e2e = endToEndDfq();
    std::cerr << "running end_to_end_serve...\n";
    const EndToEndServe serve = endToEndServe();

    std::ofstream os(out);
    if (!os) {
        std::cerr << "perf_report: cannot write " << out << "\n";
        return 2;
    }
    os << "{\n"
       << "  \"schema\": \"neon-simcore-bench-v1\",\n"
       << "  \"host\": {\n"
       << "    \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "\n"
       << "  },\n"
       << "  \"cases\": {\n";
    emitCase(os, "schedule_run", schedule_run);
    emitCase(os, "schedule_cancel_churn", churn);
    emitCase(os, "fleet_interleave", fleet, /*last=*/true);
    os << "  },\n"
       << "  \"end_to_end_dfq\": {\n"
       << "    \"sim_ms\": " << e2e.simMs << ",\n"
       << "    \"wall_s\": " << e2e.wallS << ",\n"
       << "    \"setup_s\": " << e2e.setupS << ",\n"
       << "    \"sim_ms_per_wall_s\": " << e2e.simMsPerWallS << ",\n"
       << "    \"events_executed\": " << e2e.events << ",\n"
       << "    \"peak_live_events\": " << e2e.peakLive << "\n"
       << "  },\n"
       << "  \"end_to_end_serve\": {\n"
       << "    \"sim_ms\": " << serve.simMs << ",\n"
       << "    \"wall_s\": " << serve.wallS << ",\n"
       << "    \"setup_s\": " << serve.setupS << ",\n"
       << "    \"sim_ms_per_wall_s\": " << serve.simMsPerWallS << ",\n"
       << "    \"sessions_served\": " << serve.sessions << ",\n"
       << "    \"sessions_per_wall_s\": " << serve.sessionsPerWallS
       << ",\n"
       << "    \"migrations\": " << serve.migrations << ",\n"
       << "    \"events_executed\": " << serve.events << "\n"
       << "  },\n"
       << "  \"floor_events_per_sec\": " << floor_eps << "\n"
       << "}\n";
    os.close();

    std::cout << "schedule_run:          " << schedule_run.itemsPerSec
              << " events/s\n"
              << "schedule_cancel_churn: " << churn.itemsPerSec
              << " ops/s (" << churn.compactions << " compactions)\n"
              << "fleet_interleave:      " << fleet.itemsPerSec
              << " events/s\n"
              << "end_to_end_dfq:        " << e2e.simMsPerWallS
              << " sim-ms/wall-s\n"
              << "end_to_end_serve:      " << serve.simMsPerWallS
              << " sim-ms/wall-s (" << serve.sessions << " sessions, "
              << serve.migrations << " migrations)\n";
    std::cout << "wrote " << out << "\n";

    // The floor guards the raw event core: an order-of-magnitude
    // regression fails the build.
    if (floor_eps > 0.0 && schedule_run.itemsPerSec < floor_eps) {
        std::cerr << "perf_report: schedule_run "
                  << schedule_run.itemsPerSec
                  << " events/s is below the floor of " << floor_eps
                  << "\n";
        return 1;
    }
    return 0;
}
