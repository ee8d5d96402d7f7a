/**
 * @file
 * FleetManager: N device stacks behind one placement policy.
 *
 * The manager owns the stacks and the task principals, routes each new
 * task to a device via the configured PlacementPolicy, and aggregates
 * per-task and per-device usage across the fleet. Scheduling policy
 * construction is delegated to a factory so any single-device policy
 * (Direct, Timeslice, DisengagedTimeslice, DisengagedFq, EngagedFq)
 * composes unchanged with the fleet layer.
 */

#ifndef NEON_FLEET_FLEET_MANAGER_HH
#define NEON_FLEET_FLEET_MANAGER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_config.hh"
#include "fault/watchdog.hh"
#include "fleet/device_stack.hh"
#include "fleet/fleet_config.hh"
#include "fleet/placement.hh"
#include "os/task.hh"
#include "sim/coroutine.hh"

namespace neon
{

/**
 * Builds the per-device scheduling policy. The device's ground-truth
 * meter is passed so vendor-assisted modes (DfqConfig::Attribution::
 * DeviceCounters) can be wired per device.
 */
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(
    KernelModule &, const UsageMeter &, std::size_t device_index)>;

/** Aggregated view of one fleet task (metrics/benches). */
struct FleetTaskUsage
{
    std::string label;
    std::size_t device = 0;
    int pid = 0;              ///< pid within the owning device's kernel
    Tick busy = 0;            ///< ground-truth device time
    std::uint64_t requests = 0;
    bool killed = false;
};

/** A pool of device stacks with placement-based task routing. */
class FleetManager
{
  public:
    FleetManager(EventQueue &eq, const FleetConfig &cfg,
                 const DeviceConfig &device_template,
                 const CostModel &costs,
                 const ChannelPolicy &channel_policy, Tick poll_period,
                 const SchedulerFactory &make_scheduler);

    FleetManager(const FleetManager &) = delete;
    FleetManager &operator=(const FleetManager &) = delete;

    std::size_t deviceCount() const { return stacks.size(); }
    DeviceStack &stack(std::size_t i) { return *stacks.at(i); }
    const DeviceStack &stack(std::size_t i) const { return *stacks.at(i); }
    PlacementPolicy &placement() { return *policy; }

    /**
     * Create a task and place it on a device chosen by the policy.
     * The manager owns the task for the fleet's lifetime.
     */
    Task &createTask(PlacementRequest req);

    /**
     * Create a task on an explicit device, bypassing the placement
     * policy's choice (serve-layer steering, migration targets). The
     * policy is still notified so its bookkeeping stays consistent.
     */
    Task &createTaskOn(std::size_t device, PlacementRequest req);

    /** Begin executing a placed task's body on its device's kernel. */
    void startTask(Task &t, Co body);

    /**
     * Gracefully tear down a live task (open-system departure): close
     * its channels, end its process without a protection kill, free its
     * placement slot, and notify the placement policy. The Task object
     * (and its accumulated usage in the device meter) stays owned by
     * the manager so departed work remains accounted.
     */
    void retireTask(Task &t);

    /**
     * Migrate a task to @p target: retire the incarnation on its
     * current device and create a fresh Task (same placement request)
     * on the target. Returns the new incarnation; the caller restarts
     * the workload body on it. Models checkpoint/restart migration —
     * in-flight requests on the old device are aborted.
     */
    Task &migrateTask(Task &t, std::size_t target);

    /** Start every device's kernel (polling + policy timers). */
    void start();

    /** Device index a task was placed on. */
    std::size_t deviceOf(const Task &t) const;

    // ------------------------------------------------------------------
    // Fault plane: availability, failover, watchdog protection
    // ------------------------------------------------------------------

    /**
     * Take device @p i down (fault injection): force its device model
     * Down (losing in-flight work), notify onDeviceDown (the serve
     * layer shrinks admission capacity before the evictions land), and
     * drain every live task through onTaskEvicted — or plain
     * retirement when no eviction handler is installed.
     */
    void failDevice(std::size_t i);

    /** Bring device @p i back and notify onDeviceUp. */
    void repairDevice(std::size_t i);

    bool deviceUp(std::size_t i) const { return perDevice.at(i).up; }

    /** Devices currently up. */
    std::size_t upDeviceCount() const;

    /**
     * Install a watchdog service on every device stack. Call before
     * start(); the watchdogs arm with the kernels.
     */
    void enableWatchdog(const WatchdogConfig &cfg);

    /** The per-device watchdog, or nullptr when not enabled. */
    const Watchdog *watchdog(std::size_t i) const
    {
        return i < watchdogs.size() ? watchdogs[i].get() : nullptr;
    }

    /** Watchdog kills across the fleet, device order then kill order. */
    std::vector<WatchdogKill> watchdogKillLog() const;

    std::uint64_t watchdogHangKills() const;
    std::uint64_t watchdogRunawayKills() const;

    /**
     * Observer invoked after a task is killed by per-device protection
     * (scheduler kill path). The serve layer uses it to free admission
     * slots; the placement policy has already been notified.
     */
    std::function<void(Task &)> onTaskKilled;

    /**
     * Observer handed each live task of a dying device, in placement
     * order. The handler owns the disposition (the serve layer retires
     * the incarnation and re-queues the session); without one the task
     * is simply retired.
     */
    std::function<void(Task &)> onTaskEvicted;

    /** Device availability transitions (serve capacity tracking). */
    std::function<void(std::size_t)> onDeviceDown;
    std::function<void(std::size_t)> onDeviceUp;

    /** Observer forwarded every watchdog kill across the fleet. */
    std::function<void(const WatchdogKill &)> onWatchdogKill;

    /**
     * Snapshot of per-device load, ordered by device index. The
     * vector is refilled in place by the next call, so copy it to
     * keep it.
     */
    const std::vector<DeviceLoadView> &loadViews() const;

    /** Per-task usage aggregated across all devices, placement order. */
    std::vector<FleetTaskUsage> taskUsage() const;

    /** Per-device busy time, ordered by device index. */
    std::vector<Tick> perDeviceBusy() const;

    /** Total busy time across the fleet. */
    Tick totalBusy() const;

    /** Total completed requests across the fleet's tasks. */
    std::uint64_t totalRequests() const;

    /** Total protection kills across the fleet. */
    std::uint64_t totalKills() const;

    /** Tasks ever placed (departed ones included), placement order. */
    std::size_t taskCount() const { return placed.size(); }
    Task &task(std::size_t i) const { return *placed[i].task; }

  private:
    struct Placed
    {
        std::unique_ptr<Task> task;
        PlacementRequest req;
        std::size_t device;

        /** Holds a placement slot (cleared on retire/migrate/kill). */
        bool live = true;
    };

    Task &emplaceTask(std::size_t device, PlacementRequest &&req);

    /** Position of @p t in `placed`; panics on a foreign task. */
    std::size_t placedSlot(const Task &t) const;
    Placed &placedOf(const Task &t) { return placed[placedSlot(t)]; }
    const Placed &placedOf(const Task &t) const
    {
        return placed[placedSlot(t)];
    }

    /**
     * Fleet half of the protection-kill path: release the slot and
     * notify fleet-level observers.
     */
    void handleTaskKilled(Task &t);

    /** Drop a live entry's slot and notify the policy (idempotent). */
    void releasePlacement(Placed &entry);

    std::vector<std::unique_ptr<DeviceStack>> stacks;
    std::vector<std::unique_ptr<Watchdog>> watchdogs;
    std::unique_ptr<PlacementPolicy> policy;
    std::vector<Placed> placed;

    /**
     * Open-system churn makes `placed` grow for the run's lifetime
     * (departed tasks stay owned so their usage stays accounted), so
     * the hot paths must not scan it: lookups go through each
     * task's placementSlot and load snapshots through the per-device
     * live aggregates.
     */
    struct DeviceState
    {
        bool up = true;
        std::size_t liveTasks = 0;
        double liveDemand = 0.0;
    };
    std::vector<DeviceState> perDevice; ///< device order

    mutable std::vector<DeviceLoadView> views; ///< loadViews() buffer
};

} // namespace neon

#endif // NEON_FLEET_FLEET_MANAGER_HH
