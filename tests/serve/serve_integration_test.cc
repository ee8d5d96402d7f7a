/**
 * @file
 * The serving layer's acceptance scenario: four heterogeneous DFQ
 * devices under an open Poisson load whose peak in-system session
 * count is at least twice the fleet's channel capacity. The admission
 * queue must drain (no admitted session starves), every departed
 * session's usage must be accounted exactly, cross-device fairness
 * over speed-normalized service must stay within 10% of the
 * single-device DFQ bound, and at least one migration must occur and
 * be reflected consistently in per-device and per-task metrics.
 */

#include <gtest/gtest.h>

#include "fleet/fleet_metrics.hh"
#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

TEST(ServeIntegration, OpenPoissonLoadOnHeterogeneousFleet)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.25, 1.0, 1.0, 0.75};
    cfg.serve.slotsPerDevice = 2; // fleet capacity: 8 sessions
    cfg.serve.admission = AdmissionKind::Fifo;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.serve.migrationMinTasks = 2;
    cfg.measure = sec(4);

    // Offered load: 100 sessions/s for 1.2 s, each living 250 ms once
    // admitted — a peak offered population of ~25 against 8 slots, so
    // the queue builds during the arrival window and drains after it.
    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    ServeWorkloadSpec spec{w, ArrivalSpec::poisson(100.0, sec(1.2)),
                           LifetimeSpec::fixed(msec(250))};

    ServeWorld world(cfg, {spec});
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    // The load really was open and oversubscribed.
    EXPECT_GE(r.arrivals, 80u);
    EXPECT_EQ(r.capacity, 8u);
    EXPECT_GE(r.peakLiveSessions, 2 * r.capacity);
    EXPECT_GT(r.peakQueueDepth, 0u);

    // The admission queue drained: no queued session was left behind,
    // and every admitted session departed (none starved, none killed).
    EXPECT_EQ(r.queuedAtEnd, 0u);
    EXPECT_EQ(r.kills, 0u);
    std::uint64_t admitted = 0;
    for (const auto &s : r.sessions) {
        ASSERT_TRUE(s.wasAdmitted()) << s.label << " never admitted";
        ASSERT_TRUE(s.hasDeparted()) << s.label << " never departed";
        ++admitted;
        EXPECT_GT(s.requests, 0u) << s.label;
    }
    EXPECT_EQ(admitted, r.arrivals);
    EXPECT_EQ(r.departures, r.arrivals);

    // Every departed session's usage is accounted: session-side sums
    // equal the per-device ground-truth meters exactly.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
    EXPECT_EQ(session_reqs, r.requests);

    // All four devices served work.
    ASSERT_EQ(r.deviceBusy.size(), 4u);
    for (Tick busy : r.deviceBusy)
        EXPECT_GT(busy, 0);

    // Cross-device fairness over speed-normalized service: within 10%
    // of what a single DFQ device achieves for the same per-device
    // multiprogramming (two saturating tenants on one device).
    ExperimentConfig single_cfg;
    single_cfg.sched = SchedKind::DisengagedFq;
    single_cfg.measure = sec(2);
    const RunResult single = ExperimentRunner(single_cfg).run({
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::throttle(usec(430)),
    });
    EXPECT_GE(r.serviceFairness,
              0.9 * single.fairness.taskFairness)
        << "serve fairness " << r.serviceFairness
        << " vs single-device bound " << single.fairness.taskFairness;

    // At least one migration happened, and it is reflected
    // consistently: per-session counts sum to the engine total, each
    // migrated session's device history records the move, and every
    // device it visited logged usage for it (per-device metrics agree
    // with the per-task view).
    EXPECT_GE(r.migrations, 1u);
    std::uint64_t session_migrations = 0;
    bool saw_multi_device = false;
    for (const auto &s : r.sessions) {
        session_migrations += static_cast<std::uint64_t>(s.migrations);
        ASSERT_EQ(s.devices.size(),
                  static_cast<std::size_t>(s.migrations) + 1);
        if (s.devices.size() > 1)
            saw_multi_device = true;
        for (std::size_t i = 1; i < s.devices.size(); ++i)
            EXPECT_NE(s.devices[i], s.devices[i - 1]);
    }
    EXPECT_EQ(session_migrations, r.migrations);
    EXPECT_TRUE(saw_multi_device);

    // SLO accounting covered the whole population.
    EXPECT_EQ(r.slo.queueDelayMs.count, r.arrivals);
    EXPECT_EQ(r.slo.sojournMs.count, r.departures);
    EXPECT_GT(r.slo.queueDelayMs.max, 0.0);
    EXPECT_GE(r.slo.sojournMs.p50, 250.0 - 1.0);
}

TEST(ServeIntegration, FairShareAdmissionBalancesTenantsUnderOverload)
{
    // Tenant A floods the queue ahead of tenant B; fair-share release
    // still lets B in as slots free, while FIFO would make B wait out
    // A's whole backlog.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fleet.devices = 1;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.measure = sec(1);

    WorkloadSpec wa = WorkloadSpec::throttle(usec(100));
    wa.label = "A";
    WorkloadSpec wb = WorkloadSpec::throttle(usec(100));
    wb.label = "B";

    // A: 10 sessions at t=0; B: one at t=1ms. Lifetimes 50 ms.
    std::vector<Tick> burst(10, 0);
    ServeWorkloadSpec a{wa, ArrivalSpec::trace(burst),
                        LifetimeSpec::fixed(msec(50)), "A"};
    ServeWorkloadSpec b{wb, ArrivalSpec::trace({msec(1)}),
                        LifetimeSpec::fixed(msec(50)), "B"};

    ServeRunner runner(cfg);
    const ServeRunResult r = runner.run({a, b}, /*with_slowdowns=*/false);

    const ServeSessionResult &bs = r.byLabel("B#10");
    ASSERT_TRUE(bs.wasAdmitted());
    // B jumps the eight queued A sessions at the first departure.
    EXPECT_NEAR(toMsec(bs.admitted), 50.0, 2.0);
    EXPECT_EQ(r.departures, 11u);
    EXPECT_EQ(r.queuedAtEnd, 0u);
}

TEST(ServeIntegration, DeviceDeathAmidMigrationsReconcilesMeters)
{
    // Teardown race 1: the global clock keeps migrating sessions off
    // the slow device while a scripted death — landing on a clock-tick
    // boundary, after migrations have happened — takes that same
    // device down. Both paths retire incarnations; every one must be
    // folded exactly once into the session ledger.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 2;
    cfg.fleet.speedFactors = {1.5, 0.5}; // heavy skew: migrations flow 1 -> 0
    cfg.serve.slotsPerDevice = 3;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.serve.migrationMinTasks = 1;
    cfg.measure = sec(3);

    cfg.fault.plan.script = {
        {msec(600), FaultKind::DeviceDeath, 1, msec(400)},
    };

    std::vector<Tick> arrivals;
    for (int i = 0; i < 10; ++i)
        arrivals.push_back(i * msec(20));
    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "mig";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace(arrivals), LifetimeSpec::fixed(sec(1))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    // Migrations occurred, the death interrupted sessions, everyone
    // came back, and the run drained.
    EXPECT_GE(r.migrations, 1u);
    EXPECT_GE(r.evictions, 1u);
    EXPECT_EQ(r.kills, 0u);
    EXPECT_EQ(r.shedSessions, 0u);
    EXPECT_GE(r.recoveryRate, 0.95);
    EXPECT_EQ(r.departures, r.arrivals);
    EXPECT_EQ(r.queuedAtEnd, 0u);

    // Exact reconciliation: per-session sums equal the ground-truth
    // meters even with eviction and migration folds interleaved.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
        // Device history stays coherent across evict/migrate folds.
        ASSERT_GE(s.devices.size(), 1u);
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
}

TEST(ServeIntegration, VoluntaryRetireBeatsWatchdogAndMetersReconcile)
{
    // Teardown race 2: a channel hang wedges a session whose lifetime
    // expires before the watchdog's hangTimeout. The voluntary
    // Process::retire tears down the wedged incarnation first; the
    // watchdog must not convict anyone afterwards, and the partial
    // occupancy of the hung request must land in the meters exactly.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fleet.devices = 2;
    cfg.serve.slotsPerDevice = 2;
    cfg.measure = sec(1);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(5);
    cfg.fault.watchdog.hangTimeout = msec(200); // slower than the retire
    cfg.fault.watchdog.runawayTimeout = 0;

    cfg.fault.plan.script = {
        {msec(100), FaultKind::ChannelHang, 0, 0},
        {msec(100), FaultKind::ChannelHang, 1, 0},
    };

    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "short";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace({0, 0, 0, 0}),
         LifetimeSpec::fixed(msec(150))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    // Every session departs on its own clock; no watchdog conviction.
    EXPECT_EQ(r.fault.injectedHangs, 2u);
    EXPECT_EQ(r.kills, 0u);
    EXPECT_EQ(r.fault.watchdogHangKills, 0u);
    EXPECT_EQ(r.departures, r.arrivals);
    EXPECT_EQ(r.queuedAtEnd, 0u);

    // The wedged requests occupied engines from injection to retire;
    // that occupancy is charged and reconciles exactly.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
    EXPECT_GT(session_busy, 0);
}

TEST(ServeIntegration, MetersReconcileUnderMigrationDeathAndWatchdogKill)
{
    // Teardown race 3, all three teardown paths at once: clock-steered
    // migration keeps retiring incarnations on a skewed 8-device fleet
    // while a scripted death evicts the victims and a channel hang is
    // convicted by the watchdog. Every incarnation must fold into the
    // session ledger exactly once.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 8;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8, 1.0, 1.0};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.measure = sec(2);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(5);
    cfg.fault.watchdog.hangTimeout = msec(30);
    cfg.fault.watchdog.runawayTimeout = 0;
    cfg.fault.plan.script = {
        {msec(300), FaultKind::DeviceDeath, 0, msec(400)},
        {msec(500), FaultKind::ChannelHang, 1, 0},
    };

    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    const std::vector<ServeWorkloadSpec> specs = {
        {heavy, ArrivalSpec::poisson(30.0, msec(600)),
         LifetimeSpec::fixed(msec(120))},
        {light, ArrivalSpec::poisson(50.0, msec(600)),
         LifetimeSpec::exponential(msec(80))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    // The scenario exercised every teardown path.
    EXPECT_GE(r.migrations, 1u);
    EXPECT_GE(r.evictions, 1u);
    EXPECT_EQ(r.fault.injectedDeaths, 1u);
    EXPECT_GE(r.fault.watchdogHangKills, 1u);

    // Exact reconciliation: per-session sums equal the ground-truth
    // per-device meters across eviction, migration, and kill folds.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
    EXPECT_GT(session_busy, 0);

    // And the run with faults is deterministic.
    ServeWorld again(cfg, specs);
    again.start();
    again.runFor(cfg.measure);
    EXPECT_EQ(again.eventsExecuted(), world.eventsExecuted());
    EXPECT_EQ(again.fleet.totalBusy(), world.fleet.totalBusy());
}

TEST(ServeIntegration, ShardCountAboveOneRejectedAtConstruction)
{
    // Only the serial core exists; asking for shards must fail loudly
    // at construction instead of silently running serial.
    ExperimentConfig cfg;
    cfg.fleet.devices = 4;
    cfg.shards.count = 2;
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace({0}), LifetimeSpec::fixed(msec(10))},
    };
    EXPECT_DEATH(World world(cfg),
                 "shards.count = 2: the sharded simulation core was removed");
    EXPECT_DEATH(ServeWorld world(cfg, specs),
                 "shards.count = 2: the sharded simulation core was removed");
}

TEST(ServeIntegration, ZeroDevicesRejectedAtConstruction)
{
    // An empty fleet is a configuration error, not a simulator bug:
    // both worlds must fail with a message naming the field.
    ExperimentConfig cfg;
    cfg.fleet.devices = 0;
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace({0}), LifetimeSpec::fixed(msec(10))},
    };
    EXPECT_EXIT(World world(cfg), testing::ExitedWithCode(1),
                "fleet.devices = 0");
    EXPECT_EXIT(ServeWorld world(cfg, specs), testing::ExitedWithCode(1),
                "fleet.devices = 0");
}

} // namespace
} // namespace neon
