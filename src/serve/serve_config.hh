/**
 * @file
 * Configuration for the open-system serving layer (src/serve).
 *
 * The serving layer turns the closed, spawn-everything-at-t0 harness
 * into an open system: sessions arrive by a stochastic or traced
 * process, queue in an AdmissionController while the fleet is at
 * channel capacity, are placed (optionally steered by the
 * GlobalVirtualClock), run for a finite lifetime, may migrate between
 * devices, and depart.
 */

#ifndef NEON_SERVE_SERVE_CONFIG_HH
#define NEON_SERVE_SERVE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace neon
{

/** Order in which queued placement requests are released. */
enum class AdmissionKind
{
    /** Arrival order. */
    Fifo,

    /**
     * Smallest expected-demand hint first (shortest-expected-demand;
     * ties broken by arrival order). Cuts mean queueing delay at the
     * cost of potentially delaying heavy tenants.
     */
    ShortestDemand,

    /**
     * The pending request whose tenant currently holds the fewest live
     * sessions goes first (max-min fair share across tenants; ties
     * broken by arrival order).
     */
    FairShare,
};

/** Display name of an admission policy. */
std::string admissionKindName(AdmissionKind k);

/**
 * Priority/QoS class of a serving workload. Interactive traffic is
 * released ahead of Batch in the admission queue (when QosConfig is
 * enabled) and may preempt Batch incarnations to free a slot.
 */
enum class QosClass : std::uint8_t
{
    Interactive = 0, ///< latency-sensitive; wins release ties, may preempt
    Batch = 1,       ///< throughput traffic; preemptible victim pool
};

/** Display name of a QoS class. */
std::string qosClassName(QosClass c);

/** Release-ordering priority of a QoS class (lower wins). */
constexpr int
qosPriorityOf(QosClass c)
{
    return static_cast<int>(c);
}

/**
 * Per-tenant token-bucket rate limit applied ahead of the
 * AdmissionController. Each tenant gets its own bucket built from this
 * template; a session arriving with an empty bucket is *throttled* — a
 * distinct terminal outcome, counted and recorded, never silently
 * dropped. Refill is computed in integer ticks on the virtual clock,
 * so runs are bit-identical across repeats.
 */
struct TokenBucketConfig
{
    /** Sustained admission rate, tokens (sessions) per simulated
     *  second. 0 disables rate limiting entirely. */
    double ratePerSec = 0.0;

    /** Bucket capacity in tokens: the largest burst admitted from a
     *  full bucket before throttling begins. */
    double burst = 1.0;

    bool enabled() const { return ratePerSec > 0.0; }
};

/**
 * SLO-driven predictive shedding. On an arrival that would queue, the
 * engine predicts the session's admission delay from the queued work
 * ahead of it (per-class holding-time estimates) over the fleet's
 * drain rate (slot capacity, discounted by the GlobalVirtualClock's
 * observed speed-normalized advance when steering is on). If the
 * prediction exceeds the class's queue-delay budget the session is
 * shed immediately — a fast-fail at the front door instead of a
 * queue-forever — with a distinct outcome in the session record.
 */
struct PredictiveShedConfig
{
    /** Master switch; off = queue-everything (PR 9 behaviour). */
    bool enabled = false;

    /**
     * Margin multiplier on the predicted delay before comparing with
     * the budget: > 1 sheds earlier (conservative front door), < 1
     * sheds later (optimistic).
     */
    double safety = 1.0;

    /** EWMA weight of the newest observed holding time (0..1]. */
    double holdAlpha = 0.2;

    /** Floor on any per-class holding estimate. */
    Tick holdFloor = msec(1);
};

/**
 * Priority/QoS serving classes. When enabled, the admission queue
 * releases Interactive ahead of Batch (then deadline, then session id
 * — a total deterministic order), and — with preemption on — an
 * Interactive arrival that would otherwise queue evicts the youngest
 * Batch incarnation, takes its slot, and the victim re-enters the
 * queue after a fixed backoff with its remaining lifetime frozen
 * (exactly the fault plane's eviction bookkeeping, minus the fault).
 */
struct QosConfig
{
    /** Priority + deadline release ordering in the admission queue. */
    bool enabled = false;

    /** Preempt Batch incarnations to free slots for Interactive. */
    bool preemption = false;

    /** Delay before a preempted victim re-enters the admission queue. */
    Tick preemptionBackoff = msec(2);
};

/**
 * Retry policy for sessions interrupted by device failure. An evicted
 * session re-enters admission after a capped exponential backoff; once
 * the budget is spent (or the fleet stays hopeless), it is shed.
 */
struct RetryConfig
{
    /** Retry attempts before the session is shed (fast-failed). */
    int maxRetries = 3;

    /** First backoff; attempt k waits base << k, capped below. */
    Tick backoffBase = msec(2);

    /** Ceiling on any single backoff. */
    Tick backoffCap = msec(64);
};

/**
 * Service-level objective targets for goodput accounting. A departed,
 * un-killed session "meets SLO" when it satisfies every configured
 * target; goodput is the fraction of such sessions (SloReport::goodput,
 * and per window in the analysis plane's timeline). Both targets off
 * (the default) keeps goodput reporting untargeted: every departure
 * counts as met.
 */
struct SloTargetConfig
{
    /** Admission-to-departure residency bound (0 = no target). */
    Tick sojournTarget = 0;

    /**
     * Arrival-to-admission queueing bound (0 = no target). This is the
     * budget the predictive shedder compares its delay estimate with,
     * and the target under which queue-heavy sessions stop counting as
     * goodput — the knob that makes shedding *raise* goodput at
     * overload instead of merely shrinking the served count.
     */
    Tick queueTarget = 0;

    bool any() const { return sojournTarget > 0 || queueTarget > 0; }
};

/** Serving-layer configuration. */
struct ServeConfig
{
    /** Queued-request release order. */
    AdmissionKind admission = AdmissionKind::Fifo;

    /**
     * Live-session capacity per device ("channel slots"). The fleet's
     * admission capacity is devices x slotsPerDevice. 0 derives the
     * slot count from the device's channel pool and the protection
     * policy's per-task limit (maxChannels / perTaskLimit), mirroring
     * the Section 6.3 user bound.
     */
    std::size_t slotsPerDevice = 0;

    /**
     * Aggregate per-device fair-queueing virtual times into a global
     * cross-device clock that steers placement toward the most-lagging
     * device and triggers migration. Off = admitted sessions go
     * through the fleet's placement policy unchanged.
     */
    bool useGlobalClock = false;

    /** Global-clock sampling/steering period. */
    Tick clockPeriod = msec(20);

    /**
     * Migrate a session off a device once the device's speed-normalized
     * virtual time lags the fleet's most-advanced device by more than
     * this. 0 disables migration.
     */
    Tick migrationLag = msec(50);

    /** Only migrate off devices with at least this many live sessions. */
    std::size_t migrationMinTasks = 2;

    /** Ceiling on total migrations (0 = unlimited); stability valve. */
    std::uint64_t migrationBudget = 0;

    /** Recovery policy for sessions evicted by device failure. */
    RetryConfig retry;

    /** Goodput targets (queue/sojourn bounds for "meets SLO"). */
    SloTargetConfig slo;

    /** Per-tenant token-bucket rate limit ahead of admission. */
    TokenBucketConfig rateLimit;

    /** Priority/QoS classes and batch preemption. */
    QosConfig qos;

    /** SLO-driven predictive shedding at the admission front door. */
    PredictiveShedConfig shed;
};

} // namespace neon

#endif // NEON_SERVE_SERVE_CONFIG_HH
