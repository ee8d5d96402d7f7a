/**
 * @file
 * Span-run probes: direct timings of one layer's public functions, and
 * the layer ladder that replays serve64's arrival stream with one more
 * layer switched on per rung.
 */

#include "probes.hh"

#include <deque>
#include <memory>

namespace perfbench
{

using namespace neon;

namespace
{

/** Deterministic generator for probe inputs (xorshift64*). */
struct ProbeRng
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

/** Smallest wall time of @p reps calls of @p body, in seconds. */
template <typename F>
double
bestOf(int reps, F &&body)
{
    double best = 1e30;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        body();
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

// Queue depths the probes run at, from the workloads' measured
// high-water marks (sim.peak_live_events on serve64, serve.peak_queue
// on overload_faulty_observed).
constexpr std::size_t serve64PeakLiveEvents = 330;
constexpr std::size_t overloadPeakQueue = 32;

/** EventQueue::schedule + run in a hold model at a fixed live depth. */
double
queueNsPerEvent(std::uint64_t seed)
{
    constexpr std::uint64_t events = 1'000'000;
    const double s = bestOf(3, [&] {
        EventQueue eq;
        ProbeRng rng{seed | 1};
        std::uint64_t left = events;
        struct Hold
        {
            EventQueue *eq;
            ProbeRng *rng;
            std::uint64_t *left;

            void
            operator()() const
            {
                if (*left == 0)
                    return;
                --*left;
                eq->scheduleIn(Tick(rng->next() % 1000000), *this);
            }
        };
        for (std::size_t i = 0; i < serve64PeakLiveEvents; ++i)
            eq.schedule(Tick(rng.next() % 1000000), Hold{&eq, &rng, &left});
        eq.drain();
    });
    return s * 1e9 / double(events);
}

/** Host time per request, submit to completion, on a bare GpuDevice. */
double
gpuSubmitNs()
{
    constexpr int batches = 2000;
    constexpr int perBatch = 64;
    const double s = bestOf(3, [&] {
        EventQueue eq;
        UsageMeter meter;
        DeviceConfig dc;
        GpuDevice dev(eq, dc, meter);
        GpuContext *ca = dev.createContext(1);
        GpuContext *cb = dev.createContext(2);
        Channel *a = dev.createChannel(*ca, RequestClass::Compute);
        Channel *b = dev.createChannel(*cb, RequestClass::Compute);
        for (int i = 0; i < batches; ++i) {
            for (int j = 0; j < perBatch; ++j) {
                Channel &c = j % 2 ? *b : *a;
                GpuRequest r;
                r.serviceTime = usec(10);
                r.ref = c.allocRef();
                dev.submit(c, r);
            }
            eq.drain();
        }
    });
    return s * 1e9 / double(batches * perBatch);
}

/** One policy's host ns per device request on a DCT x Throttle(19us)
 *  co-run (paper_pairs measures the same over its whole grid). */
double
schedNsPerRequest(SchedKind kind, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sched = kind;
    cfg.seed = seed;
    cfg.warmup = msec(50);
    cfg.measure = msec(400);
    World world(cfg);
    world.spawn(WorkloadSpec::app("DCT"));
    world.spawn(WorkloadSpec::throttle(usec(19)));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    const auto t0 = Clock::now();
    world.runFor(cfg.measure);
    const double s = secondsSince(t0);
    std::uint64_t requests = 0;
    for (const TaskResult &t : world.results().tasks)
        requests += t.requests;
    return requests ? s * 1e9 / double(requests) : 0.0;
}

/** PlacementPolicy::place over serve64's 64 device views. */
double
placeNs(std::uint64_t seed)
{
    constexpr int calls = 1'000'000;
    const FleetConfig fc = serve64Config(seed, sec(1)).fleet;
    std::vector<DeviceLoadView> views(fc.devices);
    ProbeRng rng{seed | 1};
    for (std::size_t i = 0; i < views.size(); ++i) {
        views[i].index = i;
        views[i].assignedTasks = rng.next() % 3;
        views[i].assignedDemand = double(views[i].assignedTasks);
        views[i].busyTime = Tick(rng.next() % 1000000);
    }
    PlacementRequest req;
    req.label = "throttle430";
    const double s = bestOf(3, [&] {
        auto policy = makePlacementPolicy(fc);
        for (int i = 0; i < calls; ++i)
            keep(policy->place(views, req));
    });
    return s * 1e9 / double(calls);
}

/** One queued arrival plus one departure that releases the next
 *  request, at overload_faulty_observed's peak queue depth. */
double
admissionNs(AdmissionKind kind)
{
    constexpr int iters = 100'000;
    constexpr std::size_t capacity = 32;
    const std::string tenants[] = {"frontend", "pipeline"};
    const double s = bestOf(3, [&] {
        AdmissionController adm(kind, capacity);
        std::deque<std::string> live;
        std::uint64_t id = 0;
        auto request = [&](std::uint64_t sid) {
            QueuedRequest r;
            r.session = sid;
            r.tenant = tenants[sid % 2];
            r.enqueued = Tick(sid);
            return r;
        };
        for (std::size_t i = 0; i < capacity + overloadPeakQueue; ++i) {
            const QueuedRequest r = request(id++);
            if (adm.arrive(r))
                live.push_back(r.tenant);
        }
        for (int i = 0; i < iters; ++i) {
            adm.arrive(request(id++));
            const std::string t = live.front();
            live.pop_front();
            if (auto rel = adm.depart(t))
                live.push_back(rel->tenant);
        }
    });
    return s * 1e9 / double(iters);
}

/** Predictive-shed decision: the queued work ahead plus decide(). */
double
shedDecideNs()
{
    constexpr int iters = 100'000;
    const PredictiveShedConfig pc = overloadConfig(1).serve.shed;
    const std::string labels[] = {"interactive", "batch"};
    const double s = bestOf(3, [&] {
        SloAdmission shed(pc);
        shed.seedHold(labels[0], msec(60));
        shed.seedHold(labels[1], msec(150));
        for (int i = 0; i < iters; ++i) {
            Tick ahead = 0;
            for (std::size_t q = 0; q < overloadPeakQueue; ++q)
                ahead += shed.holdOf(labels[q % 2]);
            keep(shed.decide(ahead, msec(1), 32, msec(20)).predicted);
        }
    });
    return s * 1e9 / double(iters);
}

/** Per-tenant token bucket charge at overload's configured rate. */
double
rateLimitNs()
{
    constexpr int iters = 1'000'000;
    const TokenBucketConfig bc = overloadConfig(1).serve.rateLimit;
    const std::string tenants[] = {"frontend", "pipeline"};
    const double s = bestOf(3, [&] {
        TenantRateLimiter lim(bc);
        for (int i = 0; i < iters; ++i)
            keep(lim.allow(tenants[i % 2], usec(i)));
    });
    return s * 1e9 / double(iters);
}

/** buildFaultPlan for overload_faulty_observed's plan. */
double
planBuildS(std::uint64_t seed)
{
    const ExperimentConfig cfg = overloadConfig(seed);
    return bestOf(200, [&] {
        keep(buildFaultPlan(cfg.fault.plan, cfg.fleet.devices, seed).size());
    });
}

// -------------------------------------------------------------------
// Layer ladder
// -------------------------------------------------------------------

constexpr Tick ladderHorizon = msec(2000);
constexpr Tick ladderArrivals = msec(1500);

struct Rung
{
    const char *name;
    double wallS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t sessions = 0;
};

/** Rungs 2-8: the serving world with the layers switched on so far. */
ExperimentConfig
rungConfig(int rung, std::uint64_t seed)
{
    ExperimentConfig cfg = serve64Config(seed, ladderHorizon);
    cfg.serve.useGlobalClock = rung >= 3;
    cfg.observe.audit.enabled = rung >= 4;
    if (rung >= 5) {
        // Control plane on but configured never to fire: no bucket
        // empties, no prediction exceeds an hour, no class preempts.
        cfg.serve.rateLimit.ratePerSec = 1e9;
        cfg.serve.rateLimit.burst = 1e9;
        cfg.serve.shed.enabled = true;
        cfg.serve.slo.queueTarget = sec(3600);
        cfg.serve.qos.enabled = true;
        cfg.serve.qos.preemption = true;
    }
    if (rung >= 6) {
        cfg.fault.watchdog.enabled = true;
        cfg.fault.plan.enabled = true;
        cfg.fault.plan.horizon = ladderArrivals;
        cfg.fault.plan.stallRatePerSec = 0.5;
        cfg.fault.plan.meanStall = msec(5);
    }
    if (rung >= 7) {
        cfg.observe.categories = obs::defaultTraceCategories;
        cfg.observe.bufferCapacity = std::size_t(1) << 20;
    }
    if (rung >= 8) {
        cfg.observe.analyze.phases = true;
        cfg.observe.analyze.window = msec(250);
    }
    return cfg;
}

Rung
runRung(int rung, const char *name, std::uint64_t seed,
        std::uint64_t sessions_hint)
{
    ScopedSpan span(name);
    Rung out{name};
    if (rung == 1) {
        // Closed FleetWorld at serve64's mean concurrency: the same
        // class mix, every task present from t0, no auditor.
        ExperimentConfig cfg = serve64Config(seed, ladderHorizon);
        cfg.warmup = 0;
        cfg.observe.audit.enabled = false;
        const auto specs = serve64Specs(ladderArrivals);
        const auto t0 = Clock::now();
        FleetWorld world(cfg);
        const auto tasks = std::size_t(serve64MeanConcurrency() + 0.5);
        for (std::size_t i = 0; i < tasks; ++i)
            world.spawn(specs[i % 4 == 3 ? 1 : 0].workload);
        world.start();
        world.beginMeasurement();
        world.runFor(ladderHorizon);
        world.results();
        out.wallS = secondsSince(t0);
        out.events = world.eventsExecuted();
        out.sessions = sessions_hint;
        return out;
    }
    const ExperimentConfig cfg = rungConfig(rung, seed);
    const auto t0 = Clock::now();
    ServeWorld world(cfg, serve64Specs(ladderArrivals));
    world.start();
    world.runFor(ladderHorizon);
    const ServeRunResult r = world.results();
    out.wallS = secondsSince(t0);
    out.events = world.eventsExecuted();
    out.sessions = r.arrivals;
    return out;
}

} // namespace

void
runProbes(std::uint64_t seed, MetricTable &out)
{
    auto timed = [&](const char *name, const char *unit, auto &&fn) {
        ScopedSpan s(name);
        out[name] = {fn(), unit};
    };
    timed("sim.queue_ns_per_event", "ns", [&] { return queueNsPerEvent(seed); });
    timed("gpu.submit_ns", "ns", [&] { return gpuSubmitNs(); });
    for (SchedKind k : paperSchedulers) {
        const std::string name = "sched." + schedMetricName(k) +
            ".ns_per_request";
        timed(name.c_str(), "ns", [&] { return schedNsPerRequest(k, seed); });
    }
    timed("fleet.place_ns", "ns", [&] { return placeNs(seed); });
    timed("serve.admission_fifo_ns", "ns",
          [&] { return admissionNs(AdmissionKind::Fifo); });
    timed("serve.admission_fair_share_ns", "ns",
          [&] { return admissionNs(AdmissionKind::FairShare); });
    timed("serve.shed_decide_ns", "ns", [&] { return shedDecideNs(); });
    timed("serve.rate_limit_ns", "ns", [&] { return rateLimitNs(); });
    timed("fault.plan_build_s", "s", [&] { return planBuildS(seed); });
}

void
runLadder(std::uint64_t seed, MetricTable &out)
{
    static const char *const names[] = {
        "ladder.fleet",   "ladder.serve",   "ladder.global_clock",
        "ladder.audit",   "ladder.control", "ladder.fault",
        "ladder.trace",   "ladder.analyze"};
    constexpr int rounds = 3;
    // Rounds visit every rung in turn so host drift hits all rungs
    // alike; each rung reports its median. The serve rung fixes the
    // session count the closed fleet rung is normalized by, so each
    // round runs it first.
    std::vector<Rung> rungs(8);
    std::vector<std::vector<double>> walls(8);
    for (int round = 0; round < rounds; ++round) {
        rungs[1] = runRung(2, names[1], seed, 0);
        rungs[0] = runRung(1, names[0], seed, rungs[1].sessions);
        for (int i = 2; i < 8; ++i)
            rungs[i] = runRung(i + 1, names[i], seed, 0);
        for (int i = 0; i < 8; ++i)
            walls[i].push_back(rungs[i].wallS);
    }
    for (int i = 0; i < 8; ++i) {
        const Rung &r = rungs[i];
        const std::string n = r.name;
        const double wall = median(walls[i]);
        const double sessions = double(std::max<std::uint64_t>(r.sessions, 1));
        out[n + ".ns_per_session"] = {wall * 1e9 / sessions, "ns"};
        out[n + ".ns_per_event"] = {
            r.events ? wall * 1e9 / double(r.events) : 0.0, "ns"};
        out[n + ".events_per_session"] = {double(r.events) / sessions,
                                          "count"};
    }
}

} // namespace perfbench
