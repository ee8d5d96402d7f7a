#include "fleet/fleet_manager.hh"

#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

FleetManager::FleetManager(EventQueue &eq, const FleetConfig &cfg,
                           const DeviceConfig &device_template,
                           const CostModel &costs,
                           const ChannelPolicy &channel_policy,
                           Tick poll_period,
                           const SchedulerFactory &make_scheduler)
    : policy(makePlacementPolicy(cfg))
{
    if (cfg.devices == 0)
        fatal("fleet.devices = 0: a fleet needs at least one device");

    perDevice.resize(cfg.devices);
    stacks.reserve(cfg.devices);
    for (std::size_t i = 0; i < cfg.devices; ++i) {
        DeviceConfig dcfg = device_template;
        dcfg.speedFactor =
            cfg.speedFactorOf(i, device_template.speedFactor);
        auto stack = std::make_unique<DeviceStack>(
            eq, i, dcfg, costs, channel_policy, poll_period);
        stack->setScheduler(
            make_scheduler(stack->kernel, stack->meter, i));
        stacks.push_back(std::move(stack));
    }
}

Task &
FleetManager::emplaceTask(std::size_t device, PlacementRequest &&req)
{
    if (device >= stacks.size())
        panic("fleet: placement chose device ", device, " of ",
              stacks.size());
    DeviceState &dev = perDevice[device];
    if (!dev.up)
        panic("fleet: placing task ", req.label, " on down device ",
              device);

    auto task =
        std::make_unique<Task>(stacks[device]->kernel, req.label);
    Task &ref = *task;
    ref.placementSlot = placed.size();
    ++dev.liveTasks;
    dev.liveDemand += req.demand;
    policy->noteTaskPlaced(req, device);
    placed.push_back({std::move(task), std::move(req), device,
                      /*live=*/true});
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.place",
               obs::TraceIds{static_cast<std::int16_t>(device), ref.pid(),
                             -1},
               dev.liveTasks, 0);

    // Protection kills happen inside the per-device scheduler; surface
    // them to fleet-level observers (admission control) and keep the
    // placement policy's live-task bookkeeping honest.
    ref.onKilled = [this](Process &p) {
        Task &t = static_cast<Task &>(p);
        NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
                   "fleet.task_killed",
                   obs::TraceIds{
                       static_cast<std::int16_t>(placedOf(t).device),
                       t.pid(), -1},
                   0, 0);
        handleTaskKilled(t);
    };
    return ref;
}

void
FleetManager::handleTaskKilled(Task &t)
{
    releasePlacement(placedOf(t));
    if (onTaskKilled)
        onTaskKilled(t);
}

std::size_t
FleetManager::placedSlot(const Task &t) const
{
    const std::size_t i = t.placementSlot;
    if (i >= placed.size() || placed[i].task.get() != &t)
        panic("fleet: task ", t.name(), " was not placed by this manager");
    return i;
}

void
FleetManager::releasePlacement(Placed &entry)
{
    if (!entry.live)
        return;
    entry.live = false;
    --perDevice[entry.device].liveTasks;
    perDevice[entry.device].liveDemand -= entry.req.demand;
    policy->noteTaskDeparted(entry.req, entry.device);
}

Task &
FleetManager::createTask(PlacementRequest req)
{
    const std::size_t device = policy->place(loadViews(), req);
    return emplaceTask(device, std::move(req));
}

Task &
FleetManager::createTaskOn(std::size_t device, PlacementRequest req)
{
    return emplaceTask(device, std::move(req));
}

void
FleetManager::startTask(Task &t, Co body)
{
    stacks[deviceOf(t)]->kernel.startTask(t, std::move(body));
}

void
FleetManager::retireTask(Task &t)
{
    // Killed tasks were torn down (and their slot released) by the
    // kill path; everything else — Running bodies and bodies that
    // already co_returned while still holding channels — goes through
    // the kernel's graceful teardown.
    if (t.killed())
        return;
    Placed &entry = placedOf(t);
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.retire",
               obs::TraceIds{static_cast<std::int16_t>(entry.device),
                             t.pid(), -1},
               perDevice[entry.device].liveTasks, 0);
    stacks[entry.device]->kernel.retireTask(t);
    releasePlacement(entry);
}

Task &
FleetManager::migrateTask(Task &t, std::size_t target)
{
    if (target >= stacks.size())
        panic("fleet: migration target ", target, " of ", stacks.size());
    Placed &entry = placedOf(t);
    if (entry.device == target)
        panic("fleet: migrating task ", t.name(), " onto its own device");

    // Copy the request before retiring: retireTask may not invalidate
    // `entry`, but emplaceTask below grows `placed` and can reallocate.
    PlacementRequest req = entry.req;
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.migrate",
               obs::TraceIds{static_cast<std::int16_t>(entry.device),
                             t.pid(), -1},
               entry.device, target);
    retireTask(t);
    return emplaceTask(target, std::move(req));
}

void
FleetManager::start()
{
    for (auto &s : stacks)
        s->kernel.start();
    for (auto &w : watchdogs)
        w->start();
}

void
FleetManager::failDevice(std::size_t i)
{
    if (i >= stacks.size())
        panic("fleet: failing device ", i, " of ", stacks.size());
    if (!perDevice[i].up)
        return;
    perDevice[i].up = false;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "fleet.device_down",
               obs::TraceIds{static_cast<std::int16_t>(i), -1, -1},
               perDevice[i].liveTasks, 0);

    // Lose in-flight work first (charging partial occupancy), then let
    // the serve layer shrink its capacity before any eviction can
    // release a queued session toward the dead device.
    stacks[i]->device.forceDown();
    if (onDeviceDown)
        onDeviceDown(i);

    // Snapshot the victims: eviction handling may create replacement
    // tasks, growing `placed` and invalidating iterators.
    std::vector<Task *> victims;
    for (const Placed &p : placed) {
        if (p.live && p.device == i)
            victims.push_back(p.task.get());
    }
    for (Task *t : victims) {
        if (t->killed())
            continue;
        if (onTaskEvicted)
            onTaskEvicted(*t);
        else
            retireTask(*t);
    }
}

void
FleetManager::repairDevice(std::size_t i)
{
    if (i >= stacks.size())
        panic("fleet: repairing device ", i, " of ", stacks.size());
    if (perDevice[i].up)
        return;
    perDevice[i].up = true;
    stacks[i]->device.repair();
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "fleet.device_up",
               obs::TraceIds{static_cast<std::int16_t>(i), -1, -1}, 0, 0);
    if (onDeviceUp)
        onDeviceUp(i);
}

std::size_t
FleetManager::upDeviceCount() const
{
    std::size_t n = 0;
    for (const DeviceState &d : perDevice)
        n += d.up ? 1 : 0;
    return n;
}

void
FleetManager::enableWatchdog(const WatchdogConfig &cfg)
{
    if (!watchdogs.empty())
        panic("fleet: watchdog already enabled");
    watchdogs.reserve(stacks.size());
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        auto w = std::make_unique<Watchdog>(
            stacks[i]->kernel.eventQueue(), stacks[i]->kernel, cfg, i);
        // The device-side kill itself already went through
        // Process::onKilled above; this forwards the verdict.
        w->onKill = [this](const WatchdogKill &k) {
            if (onWatchdogKill)
                onWatchdogKill(k);
        };
        watchdogs.push_back(std::move(w));
    }
}

std::vector<WatchdogKill>
FleetManager::watchdogKillLog() const
{
    std::vector<WatchdogKill> out;
    for (const auto &w : watchdogs)
        out.insert(out.end(), w->killLog().begin(), w->killLog().end());
    return out;
}

std::uint64_t
FleetManager::watchdogHangKills() const
{
    std::uint64_t n = 0;
    for (const auto &w : watchdogs)
        n += w->hangKills();
    return n;
}

std::uint64_t
FleetManager::watchdogRunawayKills() const
{
    std::uint64_t n = 0;
    for (const auto &w : watchdogs)
        n += w->runawayKills();
    return n;
}

std::size_t
FleetManager::deviceOf(const Task &t) const
{
    return placedOf(t).device;
}

const std::vector<DeviceLoadView> &
FleetManager::loadViews() const
{
    // O(devices): retired/migrated/killed tasks released their slot in
    // the per-device aggregates, so sticky capacity (and load
    // tie-breaks) drain as tenants depart without rescanning the
    // ever-growing placement log.
    views.resize(stacks.size());
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        const DeviceStack &s = *stacks[i];
        DeviceLoadView &v = views[i];
        v.index = s.index;
        v.speedFactor = s.device.config().speedFactor;
        v.busyTime = s.meter.totalBusy();
        v.assignedTasks = perDevice[i].liveTasks;
        v.assignedDemand = perDevice[i].liveDemand;
        v.up = perDevice[i].up;
    }
    return views;
}

std::vector<FleetTaskUsage>
FleetManager::taskUsage() const
{
    std::vector<FleetTaskUsage> out;
    out.reserve(placed.size());
    for (const Placed &p : placed) {
        const UsageMeter &m = stacks[p.device]->meter;
        FleetTaskUsage u;
        u.label = p.req.label;
        u.device = p.device;
        u.pid = p.task->pid();
        u.busy = m.busyOf(p.task->pid());
        u.requests = m.requestsOf(p.task->pid());
        u.killed = p.task->killed();
        out.push_back(std::move(u));
    }
    return out;
}

std::vector<Tick>
FleetManager::perDeviceBusy() const
{
    std::vector<Tick> out;
    out.reserve(stacks.size());
    for (const auto &s : stacks)
        out.push_back(s->meter.totalBusy());
    return out;
}

Tick
FleetManager::totalBusy() const
{
    Tick sum = 0;
    for (const auto &s : stacks)
        sum += s->meter.totalBusy();
    return sum;
}

std::uint64_t
FleetManager::totalRequests() const
{
    std::uint64_t sum = 0;
    for (const Placed &p : placed)
        sum += stacks[p.device]->meter.requestsOf(p.task->pid());
    return sum;
}

std::uint64_t
FleetManager::totalKills() const
{
    std::uint64_t sum = 0;
    for (const auto &s : stacks)
        sum += s->kernel.killCount();
    return sum;
}

} // namespace neon
