#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>

namespace perfbench
{

using namespace neon;

namespace
{

/** Span-run slice length: one span per slice of simulated time. */
constexpr Tick sliceLength = msec(100);

// serve64: 64 DFQ devices x 2 slots, Poisson arrivals at 85% of slot
// capacity. Sessions hold a slot for 200 ms on average (fixed for
// Throttle, exponential for DCT), so capacity is 128 / 0.2 s.
constexpr std::size_t serve64Devices = 64;
constexpr std::size_t serve64SlotsPerDevice = 2;
constexpr double serve64MeanHoldS = 0.2;
constexpr double serve64Load = 0.85;
constexpr Tick serve64Horizon = sec(4);
constexpr Tick serve64Arrivals = sec(3);

// overload_faulty_observed: 16 devices x 2 slots, offered ~2.5x of
// slot capacity (600/s x 60 ms + 300/s x 150 ms = 81 slot-seconds/s
// against 32 slots).
constexpr Tick overloadHorizon = msec(2000);
constexpr Tick overloadArrivals = msec(1500);

const std::vector<std::string> pairApps = {"DCT", "FFT", "glxgears",
                                           "oclParticles"};
const std::vector<double> pairThrottleUs = {19, 106, 430, 1700};
constexpr double pairMeasureS = 2.5;

std::uint64_t
dfqEpisodes(const Scheduler *s)
{
    const auto *dfq = dynamic_cast<const DisengagedFairQueueing *>(s);
    return dfq ? dfq->episodes() : 0;
}

/** Canonical text of the config fields the workloads set. */
std::string
describeConfig(const ExperimentConfig &c)
{
    std::ostringstream os;
    os << "sched=" << schedKindName(c.sched) << " seed=" << c.seed
       << " warmup=" << c.warmup << " measure=" << c.measure
       << " poll=" << c.pollPeriod << " devices=" << c.fleet.devices
       << " placement=" << placementKindName(c.fleet.placement)
       << " speeds=";
    for (double f : c.fleet.speedFactors)
        os << f << ",";
    os << " shards=" << c.shards.count
       << " admission=" << admissionKindName(c.serve.admission)
       << " slots=" << c.serve.slotsPerDevice
       << " gclock=" << c.serve.useGlobalClock
       << " clock=" << c.serve.clockPeriod
       << " mlag=" << c.serve.migrationLag
       << " retries=" << c.serve.retry.maxRetries
       << " qtarget=" << c.serve.slo.queueTarget
       << " rate=" << c.serve.rateLimit.ratePerSec << "/"
       << c.serve.rateLimit.burst << " shed=" << c.serve.shed.enabled
       << " qos=" << c.serve.qos.enabled << "/" << c.serve.qos.preemption
       << "/" << c.serve.qos.preemptionBackoff
       << " wd=" << c.fault.watchdog.enabled << "/"
       << c.fault.watchdog.checkPeriod << "/"
       << c.fault.watchdog.hangTimeout << "/"
       << c.fault.watchdog.runawayTimeout
       << " plan=" << c.fault.plan.enabled << "/" << c.fault.plan.horizon
       << "/" << c.fault.plan.deathRatePerSec << "/"
       << c.fault.plan.meanRepair << "/" << c.fault.plan.stallRatePerSec
       << "/" << c.fault.plan.meanStall << "/"
       << c.fault.plan.hangRatePerSec
       << " trace=" << c.observe.categories << "/"
       << c.observe.bufferCapacity
       << " phases=" << c.observe.analyze.phases
       << " window=" << c.observe.analyze.window
       << " audit=" << c.observe.audit.enabled << "\n";
    return os.str();
}

std::string
describeSpecs(const std::vector<ServeWorkloadSpec> &specs)
{
    std::ostringstream os;
    for (const ServeWorkloadSpec &s : specs) {
        os << "class=" << s.workload.label
           << " kind=" << static_cast<int>(s.workload.kind)
           << " req=" << s.workload.throttleParams.requestSize
           << " arrivals=" << s.arrivals.ratePerSec << "/"
           << s.arrivals.until
           << " life=" << static_cast<int>(s.lifetime.kind) << "/"
           << s.lifetime.mean << " tenant=" << s.tenant
           << " qos=" << qosClassName(s.qos) << " budget=" << s.queueBudget
           << "\n";
    }
    return os.str();
}

/** Session outcome counts, each session in exactly one bucket. */
struct Partition
{
    std::uint64_t served = 0, shed = 0, throttled = 0, killed = 0;
    std::uint64_t live = 0, queued = 0, inconsistent = 0;

    std::uint64_t
    total() const
    {
        return served + shed + throttled + killed + live + queued;
    }
};

Partition
partitionOf(const ServeRunResult &r)
{
    Partition p;
    for (const ServeSessionResult &s : r.sessions) {
        const int terminal = int(s.shed) + int(s.throttled) +
            int(s.killed) + int(s.hasDeparted() && !s.killed);
        if (terminal > 1)
            ++p.inconsistent;
        if (s.throttled)
            ++p.throttled;
        else if (s.shed)
            ++p.shed;
        else if (s.killed)
            ++p.killed;
        else if (s.hasDeparted())
            ++p.served;
        else if (s.wasAdmitted())
            ++p.live;
        else
            ++p.queued;
    }
    return p;
}

std::string
sessionDigest(const ServeRunResult &r)
{
    Digest d;
    for (const ServeSessionResult &s : r.sessions) {
        d.add(s.cls).add(s.arrived).add(s.admitted).add(s.departed);
        d.add(s.killed).add(s.shed).add(s.shedPredicted).add(s.throttled);
        d.add(s.evictions).add(s.failovers).add(s.preemptions);
        d.add(s.migrations).add(s.busy).add(s.requests).add(s.rounds);
        for (std::size_t dev : s.devices)
            d.add(dev);
    }
    return d.hex();
}

/**
 * Drive one ServeWorld repeat, with spans around every layer call.
 * @p refusals_allowed: shed, throttled and killed sessions are designed
 * outcomes of the workload rather than failed operations.
 */
RepeatResult
runServe(const ExperimentConfig &cfg,
         const std::vector<ServeWorkloadSpec> &specs, Tick horizon,
         bool refusals_allowed, const RunOptions &opts)
{
    RepeatResult out;
    std::unique_ptr<ServeWorld> world;

    auto t0 = Clock::now();
    {
        ScopedSpan s("harness.construct");
        world = std::make_unique<ServeWorld>(cfg, specs);
    }
    out.constructS = secondsSince(t0);

    t0 = Clock::now();
    {
        ScopedSpan s("harness.start");
        world->start();
    }
    out.startS = secondsSince(t0);

    t0 = Clock::now();
    if (opts.sliced) {
        for (Tick t = 0; t < horizon; t += sliceLength) {
            ScopedSpan s("sim.run_slice");
            world->runFor(std::min(sliceLength, horizon - t));
        }
    } else {
        world->runFor(horizon);
    }
    out.runS = secondsSince(t0);

    ServeRunResult r;
    t0 = Clock::now();
    {
        ScopedSpan s("harness.results");
        r = world->results();
    }
    out.resultsS = secondsSince(t0);

    t0 = Clock::now();
    if (world->observer) {
        ScopedSpan s("obs.export.trace_and_records");
        world->observer->writeOutputs();
    }
    if (world->analyzer) {
        ScopedSpan s("obs.export.timeline");
        world->analyzer->writeOutputs();
    }
    out.exportS = secondsSince(t0);

    out.simS = toSec(horizon);
    out.events = world->eventsExecuted();
    out.peakLive = world->eq.stats().peakLive;
    out.ops = r.arrivals;
    out.digest = sessionDigest(r);

    // Correctness: a clean audit, an exact outcome partition, and a
    // drained admission queue.
    if (!r.audit.clean() || r.audit.checks == 0)
        out.failures.push_back("audit: " + r.audit.summary());
    const Partition p = partitionOf(r);
    if (p.inconsistent > 0 || p.total() != r.arrivals ||
        r.sessions.size() != r.arrivals || p.shed != r.shedSessions ||
        p.throttled != r.throttledSessions || p.queued != r.queuedAtEnd)
        out.failures.push_back("outcome partition is not exact");
    if (r.queuedAtEnd != 0)
        out.failures.push_back("admission queue did not drain");
    out.served = p.served;
    out.failedOps = p.queued;
    if (!refusals_allowed) {
        out.failedOps += p.shed + p.throttled + p.killed;
        if (p.shed + p.throttled + p.killed > 0)
            out.failures.push_back("sessions refused under nominal load");
    }

    if (world->observer) {
        if (r.traceDrops != 0)
            out.failures.push_back("trace ring dropped records");
        const obs::ObserveConfig &oc = cfg.observe;
        const struct
        {
            const char *kind;
            const std::string &path;
            bool (*parses)(const std::string &);
        } files[] = {
            {"trace_json", oc.tracePath, jsonParses},
            {"records_jsonl", oc.recordsJsonlPath, jsonLinesParse},
            {"timeline_csv", oc.analyze.timelineCsvPath, csvRectangular}};
        for (const auto &f : files) {
            if (f.path.empty())
                continue;
            out.exportBytes[f.kind] = fileBytes(f.path);
            if (opts.validateExports && !f.parses(readFile(f.path)))
                out.failures.push_back(std::string(f.kind) +
                                       " export does not parse");
        }
    }

    // Simulated end-to-end metrics.
    out.sim["service_fairness"] = {r.serviceFairness, "jain"};
    // Goodput against everything attempted: a refused session misses
    // its target like a late one.
    out.sim["goodput"] = {
        r.arrivals ? double(r.slo.goodput.met) / double(r.arrivals) : 0.0,
        "ratio"};
    out.sim["queue_p99_ms"] = {r.slo.queueDelayMs.p99, "ms"};

    serveLayerCounts(*world, r, out.layer);
    out.layer["serve.failed_share"] = {
        r.arrivals ? double(p.shed + p.throttled + p.killed + p.queued) /
                double(r.arrivals)
                   : 0.0,
        "ratio"};
    out.layer["obs.ring_mb"] = {
        world->observer
            ? double(world->observer->recorder().capacity() *
                     sizeof(obs::TraceRecord)) /
                (1024.0 * 1024.0)
            : 0.0,
        "MB"};
    {
        ScopedSpan s("harness.destroy");
        world.reset();
    }
    return out;
}

// -------------------------------------------------------------------
// serve64
// -------------------------------------------------------------------

std::string
describeServe64(std::uint64_t seed)
{
    return describeConfig(serve64Config(seed, serve64Horizon)) +
        describeSpecs(serve64Specs(serve64Arrivals)) +
        "horizon=" + std::to_string(serve64Horizon) + "\n";
}

RepeatResult
runServe64(std::uint64_t seed, const RunOptions &opts)
{
    return runServe(serve64Config(seed, serve64Horizon),
                    serve64Specs(serve64Arrivals), serve64Horizon, false,
                    opts);
}

// -------------------------------------------------------------------
// overload_faulty_observed
// -------------------------------------------------------------------

std::vector<ServeWorkloadSpec>
overloadSpecs()
{
    WorkloadSpec inter = WorkloadSpec::throttle(usec(200));
    inter.label = "interactive";
    WorkloadSpec batch = WorkloadSpec::throttle(usec(400));
    batch.label = "batch";

    ServeWorkloadSpec si{inter, ArrivalSpec::poisson(600.0, overloadArrivals),
                         LifetimeSpec::exponential(msec(60)), "frontend"};
    si.qos = QosClass::Interactive;
    si.queueBudget = msec(20);
    ServeWorkloadSpec sb{batch, ArrivalSpec::poisson(300.0, overloadArrivals),
                         LifetimeSpec::fixed(msec(150)), "pipeline"};
    sb.qos = QosClass::Batch;
    return {si, sb};
}

std::string
describeOverload(std::uint64_t seed)
{
    return describeConfig(overloadConfig(seed)) +
        describeSpecs(overloadSpecs()) +
        "horizon=" + std::to_string(overloadHorizon) + "\n";
}

RepeatResult
runOverload(std::uint64_t seed, const RunOptions &opts)
{
    ExperimentConfig cfg = overloadConfig(seed);
    std::filesystem::create_directories(opts.outDir);
    cfg.observe.tracePath = opts.outDir + "/trace.json";
    cfg.observe.recordsJsonlPath = opts.outDir + "/records.jsonl";
    cfg.observe.analyze.timelineCsvPath = opts.outDir + "/timeline.csv";
    RepeatResult r =
        runServe(cfg, overloadSpecs(), overloadHorizon, true, opts);
    std::filesystem::remove_all(opts.outDir);
    return r;
}

// -------------------------------------------------------------------
// paper_pairs
// -------------------------------------------------------------------

ExperimentConfig
pairConfig(SchedKind kind, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sched = kind;
    cfg.measure = sec(pairMeasureS);
    cfg.seed = seed;
    return cfg;
}

void
digestTask(Digest &d, const TaskResult &t)
{
    d.add(t.label).add(t.meanRoundUs).add(t.rounds);
    d.add(t.gpuBusy).add(t.requests).add(t.killed);
}

std::string
describePairs(std::uint64_t seed)
{
    std::ostringstream os;
    for (SchedKind k : paperSchedulers)
        os << describeConfig(pairConfig(k, seed));
    for (const auto &a : pairApps)
        os << "app=" << a << "\n";
    for (double us : pairThrottleUs)
        os << "throttle_us=" << us << "\n";
    return os.str();
}

/** One closed World run (warmup, measurement) with spans. */
struct PairRun
{
    RunResult result;
    std::uint64_t dfqEpisodes = 0;
    double measureS = 0.0; ///< host time of the measurement window
};

PairRun
runWorld(const ExperimentConfig &cfg, const std::vector<WorkloadSpec> &specs,
         RepeatResult &acc)
{
    PairRun out;
    std::unique_ptr<World> world;
    auto t0 = Clock::now();
    {
        ScopedSpan s("harness.construct");
        world = std::make_unique<World>(cfg);
        for (const WorkloadSpec &w : specs)
            world->spawn(w);
    }
    acc.constructS += secondsSince(t0);

    t0 = Clock::now();
    {
        ScopedSpan s("harness.start");
        world->start();
    }
    acc.startS += secondsSince(t0);

    t0 = Clock::now();
    {
        ScopedSpan s("sim.warmup");
        world->runFor(cfg.warmup);
    }
    world->beginMeasurement();
    const auto m0 = Clock::now();
    {
        ScopedSpan s("sim.measure");
        world->runFor(cfg.measure);
    }
    out.measureS = secondsSince(m0);
    acc.runS += secondsSince(t0);

    t0 = Clock::now();
    {
        ScopedSpan s("harness.results");
        out.result = world->results();
    }
    acc.resultsS += secondsSince(t0);

    acc.simS += toSec(cfg.warmup + cfg.measure);
    acc.layer["obs.audit_checks"].value += double(out.result.audit.checks);
    out.dfqEpisodes = dfqEpisodes(world->sched.get());
    acc.events += world->eq.executed();
    acc.peakLive = std::max(acc.peakLive, world->eq.stats().peakLive);
    if (!out.result.audit.clean() || out.result.audit.checks == 0)
        acc.failures.push_back("audit: " + out.result.audit.summary());
    return out;
}

RepeatResult
runPairs(std::uint64_t seed, const RunOptions &)
{
    RepeatResult out;
    out.layer["obs.audit_checks"] = {0.0, "count"};
    Digest digest;

    // Solo direct-access baselines, one per distinct workload.
    std::map<std::string, double> solo;
    std::vector<WorkloadSpec> singles;
    for (const auto &a : pairApps)
        singles.push_back(WorkloadSpec::app(a));
    for (double us : pairThrottleUs)
        singles.push_back(WorkloadSpec::throttle(usec(us)));
    {
        ScopedSpan s("sched.solo_baselines");
        for (const WorkloadSpec &w : singles) {
            const PairRun pr =
                runWorld(pairConfig(SchedKind::Direct, seed), {w}, out);
            const TaskResult &t = pr.result.tasks.at(0);
            solo[w.label] = t.meanRoundUs;
            digestTask(digest, t);
        }
    }

    std::vector<double> jainSlow, jainBusy, efficiency;
    std::uint64_t requests = 0, kills = 0, episodes = 0, tasks = 0;
    std::uint64_t killedTasks = 0;
    Tick busy = 0, switchOverhead = 0, elapsed = 0;
    for (SchedKind kind : paperSchedulers) {
        const std::string policy = schedMetricName(kind);
        const std::string spanName = "sched." + policy;
        ScopedSpan ps(spanName.c_str());
        double policyHostS = 0.0;
        std::uint64_t policyRequests = 0;
        for (const auto &app : pairApps) {
            for (double us : pairThrottleUs) {
                const WorkloadSpec wa = WorkloadSpec::app(app);
                const WorkloadSpec wt = WorkloadSpec::throttle(usec(us));
                const PairRun pr =
                    runWorld(pairConfig(kind, seed), {wa, wt}, out);
                const RunResult &r = pr.result;
                policyHostS += pr.measureS;
                std::vector<double> slow, soloUs, corunUs, share;
                for (const TaskResult &t : r.tasks) {
                    ++tasks;
                    killedTasks += t.killed;
                    policyRequests += t.requests;
                    requests += t.requests;
                    soloUs.push_back(solo.at(t.label));
                    corunUs.push_back(t.meanRoundUs);
                    slow.push_back(slowdown(solo.at(t.label), t.meanRoundUs));
                    share.push_back(double(t.gpuBusy));
                    digestTask(digest, t);
                }
                kills += r.kills;
                episodes += pr.dfqEpisodes;
                busy += r.deviceBusy;
                switchOverhead += r.switchOverhead;
                elapsed += r.elapsed;
                if (kind != SchedKind::Direct) {
                    jainSlow.push_back(jainIndex(slow));
                    jainBusy.push_back(jainIndex(share));
                    efficiency.push_back(
                        concurrencyEfficiency(soloUs, corunUs));
                }
            }
        }
        out.layer["sched." + policy + ".ns_per_request"] = {
            policyRequests ? policyHostS * 1e9 / double(policyRequests)
                           : 0.0,
            "ns"};
    }

    auto mean = [](const std::vector<double> &xs) {
        double s = 0.0;
        for (double x : xs)
            s += x;
        return xs.empty() ? 0.0 : s / double(xs.size());
    };

    out.ops = tasks;
    out.served = tasks - killedTasks;
    out.failedOps = killedTasks;
    out.digest = digest.hex();
    if (killedTasks > 0)
        out.failures.push_back("co-run tasks were killed");

    out.sim["service_fairness"] = {mean(jainBusy), "jain"};
    out.sim["goodput"] = {
        tasks ? double(tasks - killedTasks) / double(tasks) : 0.0, "ratio"};
    out.sim["pair_fairness"] = {mean(jainSlow), "jain"};
    out.sim["pair_efficiency"] = {mean(efficiency), "ratio"};

    out.layer["gpu.requests"] = {double(requests), "count"};
    out.layer["gpu.util"] = {
        elapsed ? double(busy) / double(elapsed) : 0.0, "ratio"};
    out.layer["gpu.switch_overhead_ms"] = {toMsec(switchOverhead), "ms"};
    out.layer["os.kills"] = {double(kills), "count"};
    out.layer["sched.dfq_episodes"] = {double(episodes), "count"};
    return out;
}

} // namespace

std::string
schedMetricName(SchedKind k)
{
    switch (k) {
      case SchedKind::Direct:
        return "direct";
      case SchedKind::Timeslice:
        return "timeslice";
      case SchedKind::DisengagedTimeslice:
        return "disengaged_timeslice";
      case SchedKind::DisengagedFq:
        return "disengaged_fq";
      case SchedKind::EngagedFq:
        return "engaged_fq";
    }
    return "unknown";
}

double
serve64MeanConcurrency()
{
    return serve64Load * double(serve64Devices * serve64SlotsPerDevice);
}

ExperimentConfig
serve64Config(std::uint64_t seed, Tick horizon)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = serve64Devices;
    cfg.serve.slotsPerDevice = serve64SlotsPerDevice;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    // Goodput accounting only: with shedding and QoS off the queue
    // target changes no decision.
    cfg.serve.slo.queueTarget = msec(20);
    cfg.measure = horizon;
    cfg.seed = seed;
    return cfg;
}

std::vector<ServeWorkloadSpec>
serve64Specs(Tick arrivals_until)
{
    const double rate = serve64MeanConcurrency() / serve64MeanHoldS;
    WorkloadSpec thr = WorkloadSpec::throttle(usec(430));
    thr.label = "throttle430";
    WorkloadSpec dct = WorkloadSpec::app("DCT");
    return {
        {thr, ArrivalSpec::poisson(0.75 * rate, arrivals_until),
         LifetimeSpec::fixed(sec(serve64MeanHoldS))},
        {dct, ArrivalSpec::poisson(0.25 * rate, arrivals_until),
         LifetimeSpec::exponential(sec(serve64MeanHoldS))},
    };
}

ExperimentConfig
overloadConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 16;
    cfg.fleet.speedFactors = {1.5, 0.5}; // one fast, one slow device
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.retry.maxRetries = 5;
    cfg.serve.slo.queueTarget = msec(100); // batch queue target
    cfg.serve.rateLimit.ratePerSec = 450.0;
    cfg.serve.rateLimit.burst = 10.0;
    cfg.serve.shed.enabled = true;
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(5);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(30);
    cfg.fault.watchdog.runawayTimeout = msec(120);
    cfg.fault.plan.enabled = true;
    cfg.fault.plan.horizon = overloadArrivals;
    cfg.fault.plan.deathRatePerSec = 0.1;
    cfg.fault.plan.meanRepair = msec(200);
    cfg.fault.plan.stallRatePerSec = 1.0;
    cfg.fault.plan.meanStall = msec(10);
    cfg.fault.plan.hangRatePerSec = 0.5;

    cfg.observe.categories = obs::defaultTraceCategories;
    cfg.observe.bufferCapacity = std::size_t(1) << 20;
    cfg.observe.analyze.phases = true;
    cfg.observe.analyze.window = msec(250);
    cfg.measure = overloadHorizon;
    cfg.seed = seed;
    return cfg;
}

void
serveLayerCounts(ServeWorld &world, const ServeRunResult &r,
                 MetricTable &out)
{
    Tick elapsed = r.elapsed, busy = 0, switchOverhead = 0;
    std::uint64_t episodes = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const DeviceStack &s = world.fleet.stack(i);
        switchOverhead += s.meter.totalSwitchOverhead();
        episodes += dfqEpisodes(s.sched.get());
    }
    for (Tick b : r.deviceBusy)
        busy += b;
    const double devices = double(world.fleet.deviceCount());
    const AvailabilityReport &f = r.fault;

    out["gpu.requests"] = {double(r.requests), "count"};
    out["gpu.util"] = {elapsed ? double(busy) / (devices * double(elapsed))
                               : 0.0,
                       "ratio"};
    out["gpu.switch_overhead_ms"] = {toMsec(switchOverhead), "ms"};
    out["os.kills"] = {double(r.kills), "count"};
    out["sched.dfq_episodes"] = {double(episodes), "count"};
    out["fleet.migrations"] = {double(r.migrations), "count"};
    out["fleet.device_balance"] = {r.deviceBalance, "jain"};
    out["fleet.vtime_spread_ms"] = {r.vtimeSpreadMs, "ms"};
    out["serve.peak_queue"] = {double(r.peakQueueDepth), "count"};
    out["serve.retries"] = {double(r.retryAttempts), "count"};
    out["serve.sheds"] = {double(r.shedSessions), "count"};
    out["serve.throttled"] = {double(r.throttledSessions), "count"};
    out["serve.preemptions"] = {double(r.preemptions), "count"};
    out["fault.injected"] = {
        double(f.injectedDeaths + f.injectedStalls + f.injectedHangs),
        "count"};
    out["fault.detected_hangs"] = {double(f.detectedHangs), "count"};
    out["fault.evictions"] = {double(f.evictedSessions), "count"};
    out["fault.recovery_rate"] = {r.recoveryRate, "ratio"};
    out["fault.mttd_ms"] = {f.mttdMs, "ms"};
    out["fault.availability"] = {f.availability, "ratio"};
    out["obs.audit_checks"] = {double(r.audit.checks), "count"};
    out["obs.trace_records"] = {
        world.observer ? double(world.observer->recorder().written()) : 0.0,
        "count"};
    out["obs.trace_drops"] = {double(r.traceDrops), "count"};
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"serve64", describeServe64, runServe64},
        {"overload_faulty_observed", describeOverload, runOverload},
        {"paper_pairs", describePairs, runPairs},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

} // namespace perfbench
