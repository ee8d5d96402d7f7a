#include "harness/experiment.hh"

#include <utility>

#include "metrics/reporter.hh"
#include "sched/direct.hh"
#include "sched/disengaged_timeslice.hh"
#include "sched/vtime_tap.hh"
#include "sim/logging.hh"
#include "workload/synthetic_app.hh"

namespace neon
{

const std::vector<SchedKind> paperSchedulers = {
    SchedKind::Direct,
    SchedKind::Timeslice,
    SchedKind::DisengagedTimeslice,
    SchedKind::DisengagedFq,
};

std::string
schedKindName(SchedKind k)
{
    switch (k) {
      case SchedKind::Direct:
        return "direct";
      case SchedKind::Timeslice:
        return "timeslice";
      case SchedKind::DisengagedTimeslice:
        return "disengaged-ts";
      case SchedKind::DisengagedFq:
        return "disengaged-fq";
      case SchedKind::EngagedFq:
        return "engaged-fq";
    }
    return "?";
}

WorkloadSpec
WorkloadSpec::app(const std::string &profile_name)
{
    WorkloadSpec s;
    s.kind = Kind::Profile;
    s.profileName = profile_name;
    s.label = profile_name;
    return s;
}

WorkloadSpec
WorkloadSpec::throttle(Tick request_size, double sleep_ratio)
{
    WorkloadSpec s;
    s.kind = Kind::Throttle;
    s.throttleParams.requestSize = request_size;
    s.throttleParams.sleepRatio = sleep_ratio;
    // Built with += (not operator+ chains): GCC 12's inliner emits
    // false-positive -Wrestrict warnings for temporary-concat chains
    // at some call sites.
    s.label = "Throttle(";
    s.label += Table::num(toUsec(request_size), 0);
    s.label += "us";
    if (sleep_ratio > 0.0) {
        s.label += ",";
        s.label += Table::num(100.0 * sleep_ratio, 0);
        s.label += "%off";
    }
    s.label += ")";
    return s;
}

WorkloadSpec
WorkloadSpec::custom(std::string label,
                     std::function<Co(Task &, std::uint64_t)> body)
{
    WorkloadSpec s;
    s.kind = Kind::Custom;
    s.label = std::move(label);
    s.customBody = std::move(body);
    return s;
}

const TaskResult &
RunResult::byLabel(const std::string &label) const
{
    for (const auto &t : tasks) {
        if (t.label == label)
            return t;
    }
    panic("no task labelled ", label, " in results");
}

std::unique_ptr<Scheduler>
makeScheduler(const ExperimentConfig &cfg, KernelModule &kernel,
              const UsageMeter *vendor_counters)
{
    std::unique_ptr<Scheduler> sched;
    switch (cfg.sched) {
      case SchedKind::Direct:
        sched = std::make_unique<DirectScheduler>(kernel);
        break;
      case SchedKind::Timeslice:
        sched =
            std::make_unique<TimesliceScheduler>(kernel, cfg.timeslice);
        break;
      case SchedKind::DisengagedTimeslice:
        sched =
            std::make_unique<DisengagedTimeslice>(kernel, cfg.timeslice);
        break;
      case SchedKind::DisengagedFq:
        sched =
            std::make_unique<DisengagedFairQueueing>(kernel, cfg.dfq);
        break;
      case SchedKind::EngagedFq:
        sched =
            std::make_unique<EngagedFairQueueing>(kernel, cfg.engagedFq);
        break;
    }
    if (!sched)
        panic("unknown scheduler kind");
    if (auto *dfq = dynamic_cast<DisengagedFairQueueing *>(sched.get()))
        dfq->setVendorCounters(vendor_counters); // DeviceCounters mode
    return sched;
}

Co
makeWorkloadBody(Task &t, const WorkloadSpec &spec, std::uint64_t seed)
{
    switch (spec.kind) {
      case WorkloadSpec::Kind::Profile:
        return syntheticAppBody(t, AppRegistry::byName(spec.profileName),
                                seed);
      case WorkloadSpec::Kind::Throttle:
        return throttleBody(t, spec.throttleParams, seed);
      case WorkloadSpec::Kind::Custom:
        return spec.customBody(t, seed);
    }
    panic("unknown workload kind");
}

namespace
{

/** Deterministic per-task seed derivation (spawn order @p i). */
std::uint64_t
taskSeed(const ExperimentConfig &cfg, std::size_t i)
{
    return cfg.seed * 0x9e3779b9u + 0x1000 * (i + 1);
}

} // namespace

World::World(const ExperimentConfig &cfg)
    : device(eq, cfg.device, meter), kernel(eq, device, cfg.costs,
                                            cfg.channelPolicy),
      cfg(cfg)
{
    kernel.polling().setPeriod(cfg.pollPeriod);
    sched = makeScheduler(cfg, kernel, &meter);
    kernel.setScheduler(sched.get());
    if (cfg.collectTraces)
        trace.attach(device);
    if (cfg.observe.enabled()) {
        observer = std::make_unique<obs::Observer>(eq, cfg.observe);
        observer->metrics().probe("eq.executed", [this] {
            return static_cast<double>(eq.executed());
        });
        observer->start();
    }
    if (cfg.fault.watchdog.enabled) {
        watchdog = std::make_unique<Watchdog>(eq, kernel,
                                              cfg.fault.watchdog, 0);
    }
    if (cfg.observe.audit.enabled) {
        auditor = std::make_unique<obs::Auditor>(eq, cfg.observe.audit);
        if (dynamic_cast<VirtualTimeTap *>(sched.get())) {
            auditor->addMonotone("dev0.vtime_monotone", [this] {
                return static_cast<double>(
                    dynamic_cast<const VirtualTimeTap *>(sched.get())
                        ->tapSystemVtime());
            });
        }
        auditor->addMonotone("dev0.busy_monotone", [this] {
            return static_cast<double>(meter.totalBusy());
        });
        if (watchdog) {
            const WatchdogConfig wdc = cfg.fault.watchdog;
            auditor->addFinal(
                "watchdog.latency_bound",
                [this, wdc](obs::AuditLog &log, Tick now) {
                    for (const WatchdogKill &k : watchdog->killLog()) {
                        const Tick timeout = k.cause == WatchdogCause::Hang
                            ? wdc.hangTimeout
                            : wdc.runawayTimeout;
                        const Tick bound = timeout + 2 * wdc.checkPeriod;
                        log.check(k.latency <= bound,
                                  "watchdog.latency_bound", now, bound,
                                  k.latency);
                    }
                });
        }
        auditor->start();
    }
}

World::~World() = default;

Task &
World::spawn(const WorkloadSpec &spec)
{
    auto task = std::make_unique<Task>(kernel, spec.label);
    Task &ref = *task;
    taskStore.push_back(std::move(task));
    specs.push_back(spec);
    return ref;
}

void
World::start()
{
    for (std::size_t i = 0; i < taskStore.size(); ++i) {
        Task &t = *taskStore[i];
        kernel.startTask(t,
                         makeWorkloadBody(t, specs[i], taskSeed(cfg, i)));
    }
    kernel.start();
    if (watchdog)
        watchdog->start();
}

void
World::beginMeasurement()
{
    measureStart = eq.now();
    busyAtMeasureStart = meter.totalBusy();
    switchAtMeasureStart = meter.totalSwitchOverhead();
    baselineRequests.clear();
    baselineBusy.clear();
    for (auto &t : taskStore) {
        t->resetStats();
        baselineRequests.push_back(meter.requestsOf(t->pid()));
        baselineBusy.push_back(meter.busyOf(t->pid()));
    }
    trace.reset();
}

RunResult
World::results()
{
    RunResult r;
    r.elapsed = eq.now() - measureStart;
    r.deviceBusy = meter.totalBusy() - busyAtMeasureStart;
    r.switchOverhead =
        meter.totalSwitchOverhead() - switchAtMeasureStart;
    r.kills = kernel.killCount();

    for (std::size_t i = 0; i < taskStore.size(); ++i) {
        Task &t = *taskStore[i];
        TaskResult tr;
        tr.label = specs[i].label;
        tr.pid = t.pid();
        tr.meanRoundUs = t.roundTimes().mean();
        tr.rounds = t.roundTimes().count();
        tr.gpuBusy = meter.busyOf(t.pid()) -
            (i < baselineBusy.size() ? baselineBusy[i] : 0);
        tr.requests = meter.requestsOf(t.pid()) -
            (i < baselineRequests.size() ? baselineRequests[i] : 0);
        tr.killed = t.killed();
        r.tasks.push_back(std::move(tr));
    }
    if (auditor) {
        auditor->finalize();
        r.audit = auditor->report();
    }
    return r;
}

const FleetTaskResult &
FleetRunResult::byLabel(const std::string &label) const
{
    for (const auto &t : tasks) {
        if (t.label == label)
            return t;
    }
    panic("no task labelled ", label, " in fleet results");
}

void
requireSerialCore(const ExperimentConfig &cfg)
{
    if (cfg.shards.count > 1)
        fatal("shards.count = ", cfg.shards.count,
              ": the sharded simulation core was removed; use 0 or 1 "
              "(the serial core)");
}

FleetWorld::FleetWorld(const ExperimentConfig &cfg)
    : fleet(eq, cfg.fleet, cfg.device, cfg.costs,
            cfg.channelPolicy, cfg.pollPeriod,
            [&cfg](KernelModule &kernel, const UsageMeter &meter,
                   std::size_t) {
                return makeScheduler(cfg, kernel, &meter);
            }),
      cfg(cfg)
{
    requireSerialCore(cfg);
    if (cfg.collectTraces) {
        for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
            traces.push_back(std::make_unique<RequestTrace>());
            traces.back()->attach(fleet.stack(i).device);
        }
    }
    if (cfg.observe.enabled()) {
        observer = std::make_unique<obs::Observer>(eq, cfg.observe);
        observer->attachFleet(fleet);
        observer->start();
    }
    if (cfg.fault.watchdog.enabled)
        fleet.enableWatchdog(cfg.fault.watchdog);
    if (cfg.observe.audit.enabled) {
        auditor = std::make_unique<obs::Auditor>(eq, cfg.observe.audit);
        obs::registerFleetAudits(
            *auditor, fleet,
            cfg.fault.watchdog.enabled ? &cfg.fault.watchdog : nullptr);
        auditor->start();
    }
}

FleetWorld::~FleetWorld() = default;

Task &
FleetWorld::spawn(const WorkloadSpec &spec)
{
    PlacementRequest req;
    req.label = spec.label;
    req.affinityKey = spec.affinityKey;
    req.demand = spec.demand;
    Task &t = fleet.createTask(req);
    specs.push_back(spec);
    return t;
}

void
FleetWorld::start()
{
    const std::vector<Task *> &tasks = fleet.tasks();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        Task &t = *tasks[i];
        fleet.startTask(t,
                        makeWorkloadBody(t, specs[i], taskSeed(cfg, i)));
    }
    fleet.start();
}

void
FleetWorld::beginMeasurement()
{
    measureStart = eq.now();
    baselineBusy.clear();
    baselineRequests.clear();
    deviceBusyBaseline = fleet.perDeviceBusy();
    deviceSwitchBaseline.clear();
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i)
        deviceSwitchBaseline.push_back(
            fleet.stack(i).meter.totalSwitchOverhead());
    vtimeBaseline = fleetDfqVtimes(fleet);
    for (Task *t : fleet.tasks())
        t->resetStats();
    for (const FleetTaskUsage &u : fleet.taskUsage()) {
        baselineBusy.push_back(u.busy);
        baselineRequests.push_back(u.requests);
    }
    for (auto &t : traces)
        t->reset();
}

FleetRunResult
FleetWorld::results()
{
    FleetRunResult r;
    r.elapsed = eq.now() - measureStart;
    r.kills = fleet.totalKills();

    r.deviceBusy = fleet.perDeviceBusy();
    for (std::size_t i = 0; i < r.deviceBusy.size(); ++i) {
        if (i < deviceBusyBaseline.size())
            r.deviceBusy[i] -= deviceBusyBaseline[i];
        r.switchOverhead +=
            fleet.stack(i).meter.totalSwitchOverhead() -
            (i < deviceSwitchBaseline.size() ? deviceSwitchBaseline[i]
                                             : 0);
    }

    // Window-adjusted per-task usage feeds both the task results and
    // the fleet fairness indices.
    std::vector<FleetTaskUsage> usage = fleet.taskUsage();
    const std::vector<Task *> &tasks = fleet.tasks();
    for (std::size_t i = 0; i < usage.size(); ++i) {
        FleetTaskUsage &u = usage[i];
        u.busy -= i < baselineBusy.size() ? baselineBusy[i] : 0;
        u.requests -=
            i < baselineRequests.size() ? baselineRequests[i] : 0;

        FleetTaskResult tr;
        tr.label = u.label;
        tr.device = u.device;
        tr.pid = u.pid;
        tr.meanRoundUs = tasks[i]->roundTimes().mean();
        tr.rounds = tasks[i]->roundTimes().count();
        tr.gpuBusy = u.busy;
        tr.requests = u.requests;
        tr.killed = u.killed;
        r.requests += u.requests;
        r.tasks.push_back(std::move(tr));
    }

    r.throughputRps = fleetThroughputRps(r.requests, r.elapsed);
    r.fairness.taskFairness = fleetTaskFairness(usage, fleet);
    r.fairness.deviceBalance = fleetDeviceBalance(r.deviceBusy);
    r.fairness.vtimeSpreadMs = fleetVtimeSpreadMs(fleet, vtimeBaseline);
    if (auditor) {
        auditor->finalize();
        r.audit = auditor->report();
    }
    return r;
}

FleetRunResult
FleetRunner::run(const std::vector<WorkloadSpec> &specs) const
{
    FleetWorld world(cfg);
    for (const auto &s : specs)
        world.spawn(s);
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    return world.results();
}

RunResult
ExperimentRunner::run(const std::vector<WorkloadSpec> &specs) const
{
    World world(cfg);
    for (const auto &s : specs)
        world.spawn(s);
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    return world.results();
}

double
ExperimentRunner::soloRoundUs(const WorkloadSpec &spec) const
{
    ExperimentConfig solo_cfg = cfg;
    solo_cfg.sched = SchedKind::Direct;
    solo_cfg.observe = {}; // baselines never trace
    ExperimentRunner solo(solo_cfg);
    const RunResult r = solo.run({spec});
    return r.tasks.at(0).meanRoundUs;
}

std::vector<double>
ExperimentRunner::slowdowns(const std::vector<WorkloadSpec> &specs) const
{
    const RunResult co = run(specs);
    std::vector<double> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double solo = soloRoundUs(specs[i]);
        const double corun = co.tasks.at(i).meanRoundUs;
        out.push_back(solo > 0.0 ? corun / solo : 0.0);
    }
    return out;
}

} // namespace neon
