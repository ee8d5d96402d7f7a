/**
 * @file
 * Watchdog service tests: hang detection by doorbell-progress timeout
 * within the configured latency bound, runaway containment, no false
 * positives on healthy or merely-stalled devices, and the
 * hog-then-hang adversary under Disengaged Fair Queueing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/watchdog.hh"
#include "harness/experiment.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

/** Watchdog knobs shared by most tests here. */
WatchdogConfig
fastWatchdog()
{
    WatchdogConfig w;
    w.enabled = true;
    w.checkPeriod = msec(2);
    w.hangTimeout = msec(30);
    w.runawayTimeout = 0; // isolate the hang check
    return w;
}

TEST(Watchdog, KillsInfiniteKernelWithinLatencyBound)
{
    // Direct scheduling has no protection of its own — any kill is the
    // watchdog's.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fault.watchdog = fastWatchdog();
    cfg.warmup = 0;
    cfg.measure = sec(1);

    World world(cfg);
    world.spawn(WorkloadSpec::custom(
        "wedged", [](Task &t, std::uint64_t) {
            return infiniteKernelBody(t, 5, usec(100));
        }));
    Task &victim = world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(cfg.measure);
    const RunResult r = world.results();

    ASSERT_NE(world.fleet.watchdog(0), nullptr);
    EXPECT_GT(world.fleet.watchdog(0)->scans(), 0u);
    EXPECT_EQ(world.fleet.watchdog(0)->hangKills(), 1u);
    EXPECT_EQ(world.fleet.watchdog(0)->runawayKills(), 0u);
    EXPECT_EQ(r.kills, 1u);
    EXPECT_TRUE(r.byLabel("wedged").killed);

    // Detection latency is bounded by hangTimeout plus scan
    // granularity (one period to stamp, one to convict).
    ASSERT_EQ(world.fleet.watchdog(0)->killLog().size(), 1u);
    const WatchdogKill &k = world.fleet.watchdog(0)->killLog().front();
    EXPECT_EQ(k.cause, WatchdogCause::Hang);
    EXPECT_GE(k.latency, cfg.fault.watchdog.hangTimeout);
    EXPECT_LE(k.latency,
              cfg.fault.watchdog.hangTimeout +
                  2 * cfg.fault.watchdog.checkPeriod);

    // The victim survives the hang and owns the device afterwards.
    EXPECT_TRUE(victim.alive());
    EXPECT_GT(r.byLabel("Throttle(100us)").rounds, 5000u);
}

TEST(Watchdog, QuietOnHealthyWorkloads)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fault.watchdog = fastWatchdog();
    cfg.fault.watchdog.runawayTimeout = msec(150);
    cfg.warmup = 0;
    cfg.measure = sec(1);

    World world(cfg);
    world.spawn(WorkloadSpec::app("DCT"));
    world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(cfg.measure);
    const RunResult r = world.results();

    EXPECT_GT(world.fleet.watchdog(0)->scans(), 100u);
    EXPECT_TRUE(world.fleet.watchdog(0)->killLog().empty());
    EXPECT_EQ(r.kills, 0u);
}

TEST(Watchdog, StallIsNotMistakenForHang)
{
    // A Degraded window freezes every channel's doorbell progress; the
    // watchdog must not convict anyone for it, even when the stall
    // lasts far longer than hangTimeout.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fault.watchdog = fastWatchdog();
    cfg.warmup = 0;
    cfg.measure = sec(1);

    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(430)));
    world.eq.schedule(msec(100), [&world] {
        world.fleet.stack(0).device.stall(msec(200));
    });
    world.start();
    world.runFor(cfg.measure);
    const RunResult r = world.results();

    EXPECT_EQ(world.fleet.stack(0).device.health(), DeviceHealth::Up);
    EXPECT_TRUE(world.fleet.watchdog(0)->killLog().empty());
    EXPECT_EQ(r.kills, 0u);
    EXPECT_GT(r.byLabel("Throttle(430us)").rounds, 0u);
}

TEST(Watchdog, RunawayRequestIsKilledWithoutVictims)
{
    // One tenant, one huge request per round: no starved victim ever
    // stops making progress (there is nobody else), so the hang check
    // stays silent — the runaway check alone must catch it.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = sec(5); // out of the picture
    cfg.fault.watchdog.runawayTimeout = msec(5);
    cfg.warmup = 0;
    cfg.measure = sec(1);

    World world(cfg);
    world.spawn(WorkloadSpec::custom(
        "hog", [](Task &t, std::uint64_t) {
            return batchingHogBody(t, msec(8));
        }));
    world.start();
    world.runFor(cfg.measure);
    const RunResult r = world.results();

    EXPECT_EQ(world.fleet.watchdog(0)->runawayKills(), 1u);
    EXPECT_EQ(world.fleet.watchdog(0)->hangKills(), 0u);
    EXPECT_TRUE(r.byLabel("hog").killed);
    ASSERT_EQ(world.fleet.watchdog(0)->killLog().size(), 1u);
    const WatchdogKill &k = world.fleet.watchdog(0)->killLog().front();
    EXPECT_EQ(k.cause, WatchdogCause::Runaway);
    EXPECT_GE(k.latency, cfg.fault.watchdog.runawayTimeout);
}

TEST(Watchdog, HogThenHangKilledUnderDfqFairnessHoldsForVictims)
{
    // The worst watchdog tenant: indistinguishable from a legitimate
    // heavy app until it wedges. The scheduler's own kill threshold is
    // parked out of reach so detection is provably the watchdog's, and
    // the DFQ fairness bound must hold for the two victims throughout.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.dfq.killThreshold = sec(30);
    cfg.fault.watchdog = fastWatchdog();
    cfg.warmup = 0;
    cfg.measure = sec(2);

    World world(cfg);
    world.spawn(WorkloadSpec::custom(
        "hogThenHang", [](Task &t, std::uint64_t) {
            return hogThenHangBody(t, 40, msec(2));
        }));
    WorkloadSpec va = WorkloadSpec::throttle(usec(430));
    va.label = "victimA";
    WorkloadSpec vb = WorkloadSpec::throttle(usec(430));
    vb.label = "victimB";
    world.spawn(va);
    world.spawn(vb);
    world.start();
    world.runFor(cfg.measure);
    const RunResult r = world.results();

    // Killed by the watchdog, within the hang-detection bound.
    EXPECT_EQ(world.fleet.watchdog(0)->hangKills(), 1u);
    EXPECT_EQ(r.kills, 1u);
    EXPECT_TRUE(r.byLabel("hogThenHang").killed);
    ASSERT_EQ(world.fleet.watchdog(0)->killLog().size(), 1u);
    const WatchdogKill &k = world.fleet.watchdog(0)->killLog().front();
    EXPECT_EQ(k.cause, WatchdogCause::Hang);
    EXPECT_LE(k.latency,
              cfg.fault.watchdog.hangTimeout +
                  2 * cfg.fault.watchdog.checkPeriod);

    // DFQ keeps the victims fair: equal-weight identical workloads end
    // the run with near-identical device time, both substantial.
    const Tick a = r.byLabel("victimA").gpuBusy;
    const Tick b = r.byLabel("victimB").gpuBusy;
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    const double ratio = static_cast<double>(std::min(a, b)) /
        static_cast<double>(std::max(a, b));
    EXPECT_GT(ratio, 0.85);
    EXPECT_GT(a + b, msec(1000)); // they own the device after the kill
}

} // namespace
} // namespace neon
