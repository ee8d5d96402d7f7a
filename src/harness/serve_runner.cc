#include "harness/serve_runner.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "fleet/fleet_metrics.hh"
#include "sim/logging.hh"

namespace neon
{

namespace
{

/** Translate harness specs into serve-layer workload classes. */
std::vector<ServeClass>
classesFrom(const std::vector<ServeWorkloadSpec> &specs)
{
    std::vector<ServeClass> classes;
    classes.reserve(specs.size());
    for (const ServeWorkloadSpec &s : specs) {
        ServeClass c;
        c.label = s.workload.label;
        c.tenant = s.tenant.empty() ? s.workload.label : s.tenant;
        c.arrivals = s.arrivals;
        c.lifetime = s.lifetime;
        c.affinityKey = s.workload.affinityKey;
        c.demand = s.workload.demand;
        c.qos = s.qos;
        c.queueBudget = s.queueBudget;
        c.makeBody = [w = s.workload](Task &t, std::uint64_t seed) {
            return makeWorkloadBody(t, w, seed);
        };
        classes.push_back(std::move(c));
    }
    return classes;
}

} // namespace

std::size_t
resolveSlotsPerDevice(const ExperimentConfig &cfg)
{
    if (cfg.serve.slotsPerDevice > 0)
        return cfg.serve.slotsPerDevice;
    const std::size_t per_task =
        cfg.channelPolicy.perTaskLimit > 0 ? cfg.channelPolicy.perTaskLimit
                                           : 1;
    const std::size_t derived = cfg.device.maxChannels / per_task;
    return derived > 0 ? derived : 1;
}

const ServeSessionResult &
ServeRunResult::byLabel(const std::string &label) const
{
    for (const auto &s : sessions) {
        if (s.label == label)
            return s;
    }
    panic("no session labelled ", label, " in serve results");
}

ServeWorld::ServeWorld(const ExperimentConfig &cfg,
                       const std::vector<ServeWorkloadSpec> &specs)
    : fleet(eq, cfg.fleet, cfg.device, cfg.costs,
            cfg.channelPolicy, cfg.pollPeriod,
            [&cfg](KernelModule &kernel, const UsageMeter &meter,
                   std::size_t) {
                return makeScheduler(cfg, kernel, &meter);
            }),
      engine(eq, fleet, cfg.serve, classesFrom(specs),
             resolveSlotsPerDevice(cfg), cfg.seed),
      cfg(cfg)
{
    requireSerialCore(cfg);
    if (cfg.observe.enabled()) {
        observer = std::make_unique<obs::Observer>(eq, cfg.observe);
        observer->attachFleet(fleet);
        observer->attachServe(engine);
        observer->start();
    }
    if (cfg.observe.analyze.enabled()) {
        analyzer = std::make_unique<obs::Analyzer>(eq, fleet, engine,
                                                   cfg.observe.analyze);
        analyzer->start();
    }
    if (cfg.fault.watchdog.enabled)
        fleet.enableWatchdog(cfg.fault.watchdog);
    if (cfg.fault.plan.any()) {
        injector = std::make_unique<FaultInjector>(eq, fleet,
                                                   cfg.fault.plan,
                                                   cfg.seed);
    }
    if (cfg.observe.audit.enabled) {
        auditor = std::make_unique<obs::Auditor>(eq, cfg.observe.audit);
        obs::registerFleetAudits(
            *auditor, fleet,
            cfg.fault.watchdog.enabled ? &cfg.fault.watchdog : nullptr);
        obs::registerServeAudits(*auditor, engine, fleet);
        auditor->start();
    }
}

ServeWorld::~ServeWorld() = default;

void
ServeWorld::start()
{
    fleet.start();
    engine.start();
    if (injector)
        injector->start();
}

ServeRunResult
ServeWorld::results()
{
    ServeRunResult r;
    r.elapsed = eq.now();
    r.arrivals = engine.arrivalsSeen();
    r.departures = engine.departures();
    r.kills = engine.killedSessions();
    r.migrations = engine.migrationCount();
    r.evictions = engine.evictedSessions();
    r.retryAttempts = engine.retryAttempts();
    r.failovers = engine.failoverCount();
    r.shedSessions = engine.shedSessions();
    r.predictiveSheds = engine.predictiveSheds();
    r.throttledSessions = engine.throttledSessions();
    r.preemptions = engine.preemptionCount();
    r.slo.control.shed = r.shedSessions;
    r.slo.control.predictiveSheds = r.predictiveSheds;
    r.slo.control.throttled = r.throttledSessions;
    r.slo.control.preemptions = r.preemptions;
    r.peakLiveSessions = engine.peakLiveSessions();
    r.peakQueueDepth = engine.admissionState().peakPending();
    r.queuedAtEnd = engine.admissionState().pendingCount();
    r.capacity = engine.admissionState().capacity();
    r.deviceBusy = fleet.perDeviceBusy();
    r.deviceBalance = fleetDeviceBalance(r.deviceBusy);
    r.vtimeSpreadMs = fleetVtimeSpreadMs(fleet);

    std::uint64_t interrupted = 0, recovered = 0;
    std::vector<double> queue_ms, sojourn_ms, turnaround_ms, rates;
    for (const SessionRecord &s : engine.sessionResults()) {
        ServeSessionResult out;
        out.label = s.label;
        out.tenant = s.tenant;
        out.cls = s.cls;
        out.arrived = s.arrived;
        out.admitted = s.admitted;
        out.departed = s.departed;
        out.killed = s.killed;
        out.shed = s.shed;
        out.shedPredicted = s.shedPredicted;
        out.throttled = s.throttled;
        out.evictions = s.evictions;
        out.failovers = s.failovers;
        out.preemptions = s.preemptions;
        if (s.evictions > 0) {
            ++interrupted;
            // Recovered = resumed after every interruption and not
            // later dropped by shedding or a protection kill.
            if (s.failovers == s.evictions && !s.shed && !s.killed)
                ++recovered;
        }
        out.devices = s.devices;
        out.migrations = s.migrations;
        out.busy = s.busy;
        out.requests = s.requests;
        out.rounds = s.rounds;
        out.meanRoundUs = s.rounds > 0
            ? s.roundUsSum / static_cast<double>(s.rounds)
            : 0.0;
        r.requests += s.requests;

        if (out.wasAdmitted()) {
            queue_ms.push_back(toMsec(s.admitted - s.arrived));

            const Tick end = out.hasDeparted() ? s.departed : eq.now();
            const Tick residency = end - s.admitted;
            if (!s.killed && residency > 0) {
                // Speed-normalized service rate: device time weighted
                // by the speed of the device that delivered it. With
                // migration an incarnation's device varies, so weight
                // by the session's busy-weighted mean speed — here
                // approximated by the last device's speed when the
                // per-incarnation split is not retained.
                double speed = 1.0;
                if (!s.devices.empty()) {
                    speed = fleet.stack(s.devices.back())
                                .device.config()
                                .speedFactor;
                    if (speed <= 0.0)
                        speed = 1.0;
                }
                rates.push_back(static_cast<double>(s.busy) * speed /
                                static_cast<double>(residency));
            }
        }
        if (out.hasDeparted()) {
            sojourn_ms.push_back(toMsec(s.departed - s.admitted));
            turnaround_ms.push_back(toMsec(s.departed - s.arrived));
        }
        r.sessions.push_back(std::move(out));
    }

    r.throughputRps = fleetThroughputRps(r.requests, r.elapsed);
    r.sessionsPerSec = r.elapsed > 0
        ? static_cast<double>(r.departures) / toSec(r.elapsed)
        : 0.0;
    r.serviceFairness = jainIndex(rates);
    r.slo.queueDelayMs = summarizeLatencies(std::move(queue_ms));
    r.slo.sojournMs = summarizeLatencies(std::move(sojourn_ms));
    r.slo.turnaroundMs = summarizeLatencies(std::move(turnaround_ms));
    r.recoveryRate = interrupted > 0
        ? static_cast<double>(recovered) / static_cast<double>(interrupted)
        : 1.0;

    AvailabilityReport &f = r.fault;
    f.watchdogHangKills = fleet.watchdogHangKills();
    f.watchdogRunawayKills = fleet.watchdogRunawayKills();
    const std::uint64_t wd_kills =
        f.watchdogHangKills + f.watchdogRunawayKills;
    const std::uint64_t all_kills = fleet.totalKills();
    f.schedulerKills = all_kills >= wd_kills ? all_kills - wd_kills : 0;
    f.evictedSessions = r.evictions;
    f.recoveredSessions = recovered;
    f.shedSessions = r.shedSessions;

    if (injector) {
        f.injectedDeaths = injector->injectedDeaths();
        f.injectedStalls = injector->injectedStalls();
        f.injectedHangs = injector->injectedHangs();
        f.skippedInjections = injector->skipped();
        f.repairs = injector->repairs();

        // Match each injected hang to the first unconsumed watchdog
        // kill of the same victim at or after the injection; the match
        // gap is the detection latency.
        const std::vector<WatchdogKill> kills = fleet.watchdogKillLog();
        std::vector<char> used(kills.size(), 0);
        double mttd_sum = 0.0;
        for (HangRecord &h : injector->hangs()) {
            for (std::size_t i = 0; i < kills.size(); ++i) {
                if (used[i] || kills[i].device != h.device ||
                    kills[i].pid != h.pid || kills[i].at < h.at)
                    continue;
                used[i] = 1;
                h.detected = true;
                ++f.detectedHangs;
                mttd_sum += toMsec(kills[i].at - h.at);
                break;
            }
        }
        if (f.detectedHangs > 0)
            f.mttdMs = mttd_sum / static_cast<double>(f.detectedHangs);

        // Downtime: completed outages by their repair, open ones
        // clamped at the horizon.
        Tick down_total = 0;
        double mttr_sum = 0.0;
        std::uint64_t completed_outages = 0;
        for (const OutageRecord &o : injector->outages()) {
            const Tick up = o.upAt >= 0 ? o.upAt : eq.now();
            down_total += up - o.downAt;
            if (o.upAt >= 0) {
                mttr_sum += toMsec(o.upAt - o.downAt);
                ++completed_outages;
            }
        }
        if (completed_outages > 0)
            f.mttrMs =
                mttr_sum / static_cast<double>(completed_outages);
        const double device_time = static_cast<double>(eq.now()) *
            static_cast<double>(fleet.deviceCount());
        if (device_time > 0.0) {
            f.availability =
                1.0 - static_cast<double>(down_total) / device_time;
        }
    }

    // Goodput against the configured SLO targets (queue + sojourn
    // here; the slowdown target needs baselines and is refined in
    // ServeRunner). The queue budget is per class when set, so the
    // bound an interactive session is judged by is the one the shedder
    // used at its front door.
    const auto queueBudgetOf = [this](std::size_t cls) {
        const Tick own = engine.workloadClasses()[cls].queueBudget;
        return own > 0 ? own : cfg.serve.slo.queueTarget;
    };
    const auto meetsQueueSojourn = [&](const ServeSessionResult &s) {
        if (cfg.serve.slo.sojournTarget > 0 &&
            s.departed - s.admitted > cfg.serve.slo.sojournTarget)
            return false;
        const Tick qb = queueBudgetOf(s.cls);
        return qb <= 0 || s.admitted - s.arrived <= qb;
    };
    GoodputReport &gp = r.slo.goodput;
    gp.targeted = cfg.serve.slo.any();
    std::vector<GoodputReport> byClass(
        engine.workloadClasses().size());
    for (const ServeSessionResult &s : r.sessions) {
        if (!s.hasDeparted() || s.killed)
            continue;
        ++gp.eligible;
        ++byClass[s.cls].eligible;
        if (meetsQueueSojourn(s)) {
            ++gp.met;
            ++byClass[s.cls].met;
        }
    }
    gp.fraction = gp.eligible > 0
        ? static_cast<double>(gp.met) / static_cast<double>(gp.eligible)
        : 1.0;
    for (std::size_t c = 0; c < byClass.size(); ++c) {
        GoodputReport &g = byClass[c];
        g.targeted = gp.targeted || queueBudgetOf(c) > 0;
        g.fraction = g.eligible > 0
            ? static_cast<double>(g.met) / static_cast<double>(g.eligible)
            : 1.0;
        r.slo.goodputByClass.push_back(
            {engine.workloadClasses()[c].label, g});
    }

    if (analyzer) {
        analyzer->finalize();
        r.sessionPhases = analyzer->sessionPhases();
        if (analyzer->config().phases)
            r.phases = analyzer->phaseReport();
        r.timeline = analyzer->timeline();
    }
    if (auditor) {
        auditor->finalize();
        r.audit = auditor->report();
    }
    if (observer)
        r.traceDrops = observer->droppedRecords();
    return r;
}

ServeRunResult
ServeRunner::run(const std::vector<ServeWorkloadSpec> &specs,
                 bool with_slowdowns) const
{
    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    ServeRunResult r = world.results();
    if (world.observer) {
        world.observer->writeOutputs();
        r.observeSummary = world.observer->summary();
    }
    if (world.analyzer)
        world.analyzer->writeOutputs();

    if (with_slowdowns) {
        // Per-class isolated baseline: the workload alone on one
        // template-speed device under direct access (the paper's
        // normalization basis), reused for every session of the class.
        ExperimentConfig solo_cfg = cfg;
        solo_cfg.sched = SchedKind::Direct;
        solo_cfg.fleet = FleetConfig{};
        solo_cfg.warmup = msec(100);
        solo_cfg.measure = msec(500);
        solo_cfg.observe = {}; // baselines never trace

        ExperimentRunner solo(solo_cfg);

        std::map<std::size_t, double> solo_round;
        std::vector<double> slowdowns;
        for (const ServeSessionResult &s : r.sessions) {
            if (!s.hasDeparted() || s.killed || s.rounds == 0)
                continue;
            auto it = solo_round.find(s.cls);
            if (it == solo_round.end()) {
                it = solo_round
                         .emplace(s.cls,
                                  solo.soloRoundUs(specs[s.cls].workload))
                         .first;
            }
            if (it->second > 0.0)
                slowdowns.push_back(s.meanRoundUs / it->second);
        }
        r.slo.slowdown = summarizeLatencies(std::move(slowdowns));
    }
    return r;
}

} // namespace neon
