/**
 * @file
 * Always-on invariant auditor.
 *
 * The test suite asserts conservation invariants (session usage ==
 * device meters, admitted == live + departed + killed + shed, vtime
 * monotonicity, watchdog detection-latency bounds) — but only in
 * tests. This promotes them to a runtime plane: an AuditLog counts
 * every check and records violations (never silently), and an Auditor
 * drives registered checks on a virtual-time cadence plus a final pass
 * at harvest. Default-enabled in every world: checks are read-only
 * (they cannot perturb simulation outcomes) and the hot path of a
 * passing check is one predicted branch plus a counter bump, so the
 * auditor rides along in every example and bench the way disabled
 * trace points do.
 */

#ifndef NEON_OBS_AUDIT_HH
#define NEON_OBS_AUDIT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace neon
{

class EventQueue;
class FleetManager;
class ServeEngine;
struct WatchdogConfig;

namespace obs
{

/** Per-run auditor configuration (ObserveConfig::audit). */
struct AuditConfig
{
    /** Run the registered invariant checks (on by default). */
    bool enabled = true;

    /** Periodic check cadence in virtual time (0 = final pass only). */
    Tick period = msec(10);

    /** Violation samples retained for diagnostics (counts never cap). */
    std::size_t maxSamples = 8;
};

/** One recorded invariant violation (diagnostic sample). */
struct AuditViolation
{
    std::string check;
    Tick when = 0;
    std::int64_t expected = 0;
    std::int64_t actual = 0;
};

/** Harvested audit outcome (RunResult / ServeRunResult). */
struct AuditReport
{
    std::uint64_t checks = 0;     ///< individual checks evaluated
    std::uint64_t violations = 0; ///< checks that failed
    std::vector<std::pair<std::string, std::uint64_t>> byCheck;
    std::vector<AuditViolation> samples; ///< first maxSamples failures

    bool clean() const { return violations == 0; }
    std::string summary() const;
};

/**
 * Violation ledger with a bench-grade hot path: a passing check is one
 * branch and a counter increment — cheap enough to sit on a per-event
 * loop (the open_system_churn_audited bench case measures exactly
 * that). Failures are counted per check name and sampled, never
 * silent.
 */
class AuditLog
{
  public:
    explicit AuditLog(std::size_t max_samples = 8)
        : maxSamples(max_samples)
    {
    }

    /** Evaluate one invariant; @p name must be a literal/stable string. */
    void
    check(bool ok, const char *name, Tick when, std::int64_t expected = 0,
          std::int64_t actual = 0)
    {
        ++nChecks;
        if (ok) [[likely]]
            return;
        recordViolation(name, when, expected, actual);
    }

    std::uint64_t checks() const { return nChecks; }
    std::uint64_t violations() const { return nViolations; }

    AuditReport report() const;

  private:
    void recordViolation(const char *name, Tick when, std::int64_t expected,
                         std::int64_t actual);

    std::size_t maxSamples;
    std::uint64_t nChecks = 0;
    std::uint64_t nViolations = 0;
    std::map<std::string, std::uint64_t> perCheck; ///< violations by name
    std::vector<AuditViolation> samples;
};

/**
 * Drives registered checks against one world's EventQueue: periodic
 * checks every cfg.period of virtual time, monotonicity watches (a
 * probed value must never decrease between observations), and final
 * checks run once at finalize(). All checks are read-only observers of
 * simulation state.
 */
class Auditor
{
  public:
    /** A check body: evaluate invariants into @p log at time @p now. */
    using Check = std::function<void(AuditLog &, Tick)>;

    Auditor(EventQueue &eq, const AuditConfig &cfg);

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** Run @p fn every cfg.period (and once more at finalize). */
    void addPeriodic(std::string name, Check fn);

    /** Run @p fn once, at finalize. */
    void addFinal(std::string name, Check fn);

    /** Watch @p probe: its value must never decrease. */
    void addMonotone(const std::string &name, std::function<double()> probe);

    /** Arm the periodic cadence (no-op when cfg.period == 0). */
    void start();

    /**
     * Run every periodic check once more plus all final checks, and
     * stop the cadence. Idempotent; results() paths call it freely.
     */
    void finalize();

    AuditLog &log() { return log_; }
    AuditReport report() const { return log_.report(); }

  private:
    void tick();

    EventQueue &eq;
    AuditConfig cfg;
    AuditLog log_;
    std::vector<std::pair<std::string, Check>> periodic;
    std::vector<std::pair<std::string, Check>> finals;
    bool started = false;
    bool finalized = false;
};

/**
 * Register the standard fleet invariants: per-device scheduler vtime
 * monotonicity (fair-queueing policies only), per-device meter busy
 * monotonicity, and — when @p wd is given — the watchdog
 * detection-latency bound (kill latency <= timeout + 2 x checkPeriod)
 * as a final check over the fleet's kill log.
 */
void registerFleetAudits(Auditor &a, FleetManager &fleet,
                         const WatchdogConfig *wd = nullptr);

/**
 * Register the serving-layer invariants: admitted-session conservation
 * (arrivals == live + departures + kills + sheds, checked continuously)
 * and exact usage reconciliation (session busy/request sums == device
 * meter sums, final — the runtime form of the fault-integration test's
 * expectExactAccounting).
 */
void registerServeAudits(Auditor &a, ServeEngine &engine,
                         FleetManager &fleet);

} // namespace obs
} // namespace neon

#endif // NEON_OBS_AUDIT_HH
