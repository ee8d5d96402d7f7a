/**
 * @file
 * Experiment harness: assembles a closed world (device stacks +
 * placement + tasks), runs warmup and measurement windows, and reports
 * the paper's metrics (per-round times, slowdowns, concurrency
 * efficiency) with fleet-wide throughput and fairness.
 */

#ifndef NEON_HARNESS_EXPERIMENT_HH
#define NEON_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_config.hh"
#include "fleet/fleet_manager.hh"
#include "fleet/fleet_metrics.hh"
#include "gpu/device.hh"
#include "gpu/usage_meter.hh"
#include "metrics/request_trace.hh"
#include "obs/observe.hh"
#include "os/kernel.hh"
#include "os/task.hh"
#include "sched/disengaged_fq.hh"
#include "sched/engaged_fq.hh"
#include "sched/timeslice.hh"
#include "serve/serve_config.hh"
#include "sim/event_queue.hh"
#include "workload/app_profile.hh"
#include "workload/arrival.hh"
#include "workload/throttle.hh"

namespace neon
{

/** Which policy to install. */
enum class SchedKind
{
    Direct,
    Timeslice,
    DisengagedTimeslice,
    DisengagedFq,
    EngagedFq,
};

/** Display name of a policy. */
std::string schedKindName(SchedKind k);

/** The four policies evaluated in the paper's figures. */
extern const std::vector<SchedKind> paperSchedulers;

/**
 * Simulation-core shape (ExperimentConfig::shards). Only the serial
 * core exists: 0 and 1 both mean one event queue, and World and
 * ServeWorld reject count > 1 at construction. Kept because perfbench
 * prints it in its config description (perfbench/src/workloads.cc).
 */
struct ShardConfig
{
    unsigned count = 0;
};

/** Full experiment configuration. */
struct ExperimentConfig
{
    SchedKind sched = SchedKind::Direct;

    DeviceConfig device;
    CostModel costs;
    ChannelPolicy channelPolicy;
    Tick pollPeriod = msec(1);

    TimesliceConfig timeslice;
    DfqConfig dfq;
    EngagedFqConfig engagedFq;

    /**
     * Device pool shape (World and ServeWorld): device count (one by
     * default), per-device speeds and task placement. Each device
     * runs its own instance of the policy selected by `sched`.
     */
    FleetConfig fleet;

    /**
     * Open-system serving layer (ServeWorld/ServeRunner only):
     * admission policy, per-device session slots, global virtual
     * clock, and migration thresholds.
     */
    ServeConfig serve;

    /**
     * Fault plane: watchdog protection (all worlds) and the seeded
     * fault-injection plan (ServeWorld only). Default-disabled; an
     * empty plan with the watchdog on leaves workload draws
     * bit-identical to a fault-free run.
     */
    FaultConfig fault;

    /** Simulation-core shape; see ShardConfig. */
    ShardConfig shards;

    Tick warmup = msec(400);
    Tick measure = sec(4);
    std::uint64_t seed = 42;

    /** Attach a RequestTrace during measurement (Table 1 / Fig. 2). */
    bool collectTraces = false;

    /**
     * Tracing & metrics plane (all worlds): category mask, trace ring
     * capacity, sampling cadence, and output paths. Default-disabled —
     * every NEON_TRACE point stays a single predicted-untaken branch.
     */
    obs::ObserveConfig observe;
};

/** One task's workload description. */
struct WorkloadSpec
{
    /** Profile-driven synthetic app. */
    static WorkloadSpec app(const std::string &profile_name);

    /** Throttle microbenchmark. */
    static WorkloadSpec throttle(Tick request_size, double sleep_ratio = 0.0);

    /** Arbitrary body (adversaries, custom scenarios). */
    static WorkloadSpec
    custom(std::string label,
           std::function<Co(Task &, std::uint64_t)> body);

    /** Fleet placement: set the sticky-affinity key (fluent). */
    WorkloadSpec &
    withAffinity(std::string key)
    {
        affinityKey = std::move(key);
        return *this;
    }

    /** Fleet placement: set the relative demand hint (fluent). */
    WorkloadSpec &
    withDemand(double d)
    {
        demand = d;
        return *this;
    }

    std::string label;
    enum class Kind { Profile, Throttle, Custom } kind = Kind::Profile;
    std::string profileName;
    ThrottleParams throttleParams;
    std::function<Co(Task &, std::uint64_t)> customBody;

    /** Sticky-placement affinity key (empty = use the label). */
    std::string affinityKey;

    /** Relative expected load (HeterogeneityAware placement hint). */
    double demand = 1.0;
};

/** Per-task outcome of a run. */
struct TaskResult
{
    std::string label;
    std::size_t device = 0; ///< device the task was placed on
    int pid = 0;            ///< pid within that device's kernel
    double meanRoundUs = 0.0;
    std::uint64_t rounds = 0;
    Tick gpuBusy = 0;           ///< ground-truth device time (measurement)
    std::uint64_t requests = 0; ///< completed device requests
    bool killed = false;
};

/** Whole-run outcome (measurement window). */
struct RunResult
{
    std::vector<TaskResult> tasks;
    Tick elapsed = 0;

    /**
     * Execute-engine busy summed over the fleet. A scalar Tick because
     * perfbench's paper_pairs adds it up (perfbench/src/workloads.cc).
     */
    Tick deviceBusy = 0;

    std::vector<Tick> perDeviceBusy; ///< busy per device, device order
    std::uint64_t requests = 0;      ///< fleet-wide completions
    Tick switchOverhead = 0;         ///< fleet-wide arbitration overhead
    std::uint64_t kills = 0;
    double throughputRps = 0.0;      ///< fleet-wide requests per second
    FleetFairnessReport fairness;

    /** Invariant-audit outcome (checks == 0 when the auditor was off). */
    obs::AuditReport audit;

    const TaskResult &byLabel(const std::string &label) const;
};

/**
 * Build the scheduling policy selected by @p cfg for one kernel
 * module. @p vendor_counters (the device's ground-truth meter) is
 * wired into policies that support vendor-assisted attribution
 * (DfqConfig::Attribution::DeviceCounters); pass nullptr to leave the
 * software-only estimates.
 */
std::unique_ptr<Scheduler>
makeScheduler(const ExperimentConfig &cfg, KernelModule &kernel,
              const UsageMeter *vendor_counters);

/**
 * Instantiate @p spec's workload body for @p t. Shared by the closed
 * world (spawn at t0) and the serving layer (bodies restarted per
 * session incarnation).
 */
Co makeWorkloadBody(Task &t, const WorkloadSpec &spec, std::uint64_t seed);

/**
 * Reject a config that asks for the removed sharded core
 * (cfg.shards.count > 1) with a fatal() naming the field. The World
 * and ServeWorld constructors call it.
 */
void requireSerialCore(const ExperimentConfig &cfg);

/**
 * The closed simulation world: cfg.fleet.devices device stacks (one
 * by default, the paper's setting), each running its own instance of
 * cfg.sched, with tasks routed to devices by cfg.fleet.placement.
 * Exposed so tests and examples can poke at internals; benches
 * normally go through ExperimentRunner.
 */
class World
{
  public:
    explicit World(const ExperimentConfig &cfg);
    ~World();

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Create a task running @p spec, routed by the placement policy;
     *  call before start(). */
    Task &spawn(const WorkloadSpec &spec);

    /** Start every device's kernel and all spawned tasks. */
    void start();

    /** Run for @p d simulated time. */
    void runFor(Tick d) { eq.runFor(d); }

    /** Begin the measurement window: snapshot all statistics. */
    void beginMeasurement();

    /** Harvest results since beginMeasurement(). */
    RunResult results();

    /** Device @p i's request trace (cfg.collectTraces only). */
    RequestTrace &
    traceOf(std::size_t i)
    {
        if (i >= traces.size())
            panic("no trace for device ", i,
                  traces.empty() ? " (collectTraces not set)" : "");
        return *traces[i];
    }

    /** Events executed so far. */
    std::uint64_t eventsExecuted() const { return eq.executed(); }

    EventQueue eq;
    FleetManager fleet;

    /**
     * Device 0's policy. Kept because perfbench counts DFQ episodes
     * through it (perfbench/src/workloads.cc); other callers reach
     * every device through fleet.stack(i).sched.
     */
    const std::unique_ptr<Scheduler> &sched;

    /** Tracing/metrics bundle (cfg.observe.enabled() only, else null). */
    std::unique_ptr<obs::Observer> observer;

    /** Invariant auditor (cfg.observe.audit.enabled; on by default). */
    std::unique_ptr<obs::Auditor> auditor;

  private:
    ExperimentConfig cfg;
    std::vector<WorkloadSpec> specs; // parallel to fleet.task(i)
    std::vector<std::unique_ptr<RequestTrace>> traces; // per device
    std::vector<Tick> baselineBusy;
    std::vector<std::uint64_t> baselineRequests;
    std::vector<Tick> deviceBusyBaseline;
    std::vector<Tick> deviceSwitchBaseline;
    std::vector<Tick> vtimeBaseline;
    Tick measureStart = 0;
};

/**
 * The multi-device world's former name. perfbench's layer ladder
 * still spells it (perfbench/src/probes.cc), and perfbench changes
 * only with the benchmark.
 */
using FleetWorld = World;

/** Convenience driver for the common run patterns. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig cfg) : cfg(std::move(cfg)) {}

    /** Run the given workloads together under cfg. */
    RunResult run(const std::vector<WorkloadSpec> &specs) const;

    /**
     * Solo baseline: run one workload alone on one template-speed
     * device under direct access (the paper's normalization basis).
     * Returns the mean round time in us.
     */
    double soloRoundUs(const WorkloadSpec &spec) const;

    /**
     * Slowdowns of each workload in a co-run relative to its solo
     * direct-access baseline, in spec order.
     */
    std::vector<double>
    slowdowns(const std::vector<WorkloadSpec> &specs) const;

    const ExperimentConfig &config() const { return cfg; }
    ExperimentConfig &config() { return cfg; }

  private:
    ExperimentConfig cfg;
};

} // namespace neon

#endif // NEON_HARNESS_EXPERIMENT_HH
