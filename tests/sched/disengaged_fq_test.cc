/**
 * @file
 * Tests for Disengaged Fair Queueing: the engagement cycle, sampling
 * estimates, virtual-time maintenance, denial, and protection.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/serve_runner.hh"
#include "sched/disengaged_fq.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

ExperimentConfig
dfqConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.measure = sec(2);
    return cfg;
}

TEST(DisengagedFq, EpisodesCycleThroughPhases)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(400));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(dfq, nullptr);
    // ~25ms free run + short episode: several episodes in 400ms.
    EXPECT_GE(dfq->episodes(), 8u);
    EXPECT_LE(dfq->episodes(), 20u);
}

TEST(DisengagedFq, StandaloneFreeRunIs25Ms)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(400));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    EXPECT_EQ(dfq->currentFreeRun(), msec(25));
}

TEST(DisengagedFq, PairFreeRunIs50Ms)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(msec(400));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    EXPECT_EQ(dfq->currentFreeRun(), msec(50));
}

TEST(DisengagedFq, SamplingEstimatesRequestSize)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    Task &t = world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(400));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    EXPECT_NEAR(toUsec(dfq->estSizeOf(t.pid())), 100.0, 10.0);
}

TEST(DisengagedFq, SamplingEstimatesDutyCycle)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    Task &busy = world.spawn(WorkloadSpec::throttle(usec(100)));
    Task &lazy = world.spawn(WorkloadSpec::throttle(usec(100), 0.8));
    world.start();
    world.runFor(sec(1));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    EXPECT_GT(dfq->dutyOf(busy.pid()), 0.85);
    EXPECT_LT(dfq->dutyOf(lazy.pid()), 0.5);
}

TEST(DisengagedFq, MostSubmissionsAreDirect)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(sec(1));

    Channel *c = world.fleet.stack(0).kernel.activeChannels()[0];
    // Faults only during sampling windows (~1/6 of the time at most).
    EXPECT_GT(c->doorbell().directWrites(),
              3 * c->doorbell().faults());
}

TEST(DisengagedFq, VirtualTimesEqualizeUnderContention)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    Task &small = world.spawn(WorkloadSpec::app("DCT"));
    Task &large = world.spawn(WorkloadSpec::throttle(usec(1700)));
    world.start();
    world.runFor(sec(3));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    const double vt_s = toMsec(dfq->vtimeOf(small.pid()));
    const double vt_l = toMsec(dfq->vtimeOf(large.pid()));

    // Imbalance is bounded by roughly the inter-engagement interval
    // plus one interval of estimation error.
    EXPECT_LT(std::abs(vt_s - vt_l),
              2.5 * toMsec(dfq->currentFreeRun()));

    // And both virtual times moved far beyond that bound.
    EXPECT_GT(vt_s, 4 * toMsec(dfq->currentFreeRun()));
}

TEST(DisengagedFq, AheadTaskGetsDeniedEventually)
{
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    Task &small = world.spawn(WorkloadSpec::app("DCT"));
    Task &large = world.spawn(WorkloadSpec::throttle(usec(1700)));
    world.start();

    bool large_denied = false;
    bool small_denied = false;
    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    for (int i = 0; i < 200; ++i) {
        world.runFor(msec(10));
        large_denied |= dfq->isDenied(large.pid());
        small_denied |= dfq->isDenied(small.pid());
    }

    EXPECT_TRUE(large_denied);
    EXPECT_FALSE(small_denied);
}

TEST(DisengagedFq, FairSharingBetweenSaturatingTasks)
{
    ExperimentConfig cfg = dfqConfig();
    cfg.measure = sec(4);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
    });

    EXPECT_NEAR(sd[0], 2.0, 0.45);
    EXPECT_NEAR(sd[1], 2.0, 0.45);
}

TEST(DisengagedFq, WorkConservingWithIdleCoRunner)
{
    // The sleeper leaves the device idle; DFQ lets the busy task use
    // it (unlike the timeslice policies).
    ExperimentConfig cfg = dfqConfig();
    cfg.measure = sec(3);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700), 0.8),
    });

    EXPECT_LT(sd[0], 1.6);  // DCT benefits from the sleeper's idleness
    EXPECT_LT(sd[1], 1.35); // and the sleeper barely suffers
}

TEST(DisengagedFq, SleeperDoesNotBankCredit)
{
    // After sleeping, a task may not monopolize the device to "catch
    // up": its virtual time was snapped forward while inactive.
    ExperimentConfig cfg = dfqConfig();
    World world(cfg);
    Task &busy = world.spawn(WorkloadSpec::throttle(usec(430)));
    Task &late = world.spawn(WorkloadSpec::custom(
        "late-starter", [](Task &t, std::uint64_t seed) {
            return throttleBody(t, {usec(430), 0.0, 0.02}, seed);
        }));
    world.start();
    world.runFor(sec(1));

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    // Both contended from the start here; the invariant to check is
    // that nobody's virtual time sits below the system virtual time by
    // more than an interval (no banked credit).
    EXPECT_GE(toMsec(dfq->vtimeOf(busy.pid())),
              toMsec(dfq->systemVtime()) -
                  2.0 * toMsec(dfq->currentFreeRun()));
    EXPECT_GE(toMsec(dfq->vtimeOf(late.pid())),
              toMsec(dfq->systemVtime()) -
                  2.0 * toMsec(dfq->currentFreeRun()));
}

TEST(DisengagedFq, ProtectionKillsRunawayTask)
{
    ExperimentConfig cfg = dfqConfig();
    cfg.dfq.killThreshold = msec(100);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::custom("malicious",
                             [](Task &t, std::uint64_t) {
                                 return infiniteKernelBody(t, 3,
                                                           usec(100));
                             }),
        WorkloadSpec::throttle(usec(100)),
    });

    EXPECT_EQ(r.kills, 1u);
    EXPECT_TRUE(r.tasks[0].killed);
    EXPECT_GT(r.tasks[1].rounds, 10000u);
}

TEST(DisengagedFq, CountTimesSizeAttributionAlsoFair)
{
    ExperimentConfig cfg = dfqConfig();
    cfg.dfq.attribution = DfqConfig::Attribution::CountTimesSize;
    cfg.measure = sec(4);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
    });

    EXPECT_NEAR(sd[0], 2.0, 0.45);
    EXPECT_NEAR(sd[1], 2.0, 0.45);
}

TEST(DisengagedFq, GlxgearsAnomalyUnderShareAttribution)
{
    // Paper Section 5.3: glxgears' requests complete at a fraction of
    // the compute co-runner's rate during free runs, the size-share
    // estimate overcharges it, and the lighter task (gears needs only
    // ~half the device) ends up suffering at least as much as the
    // saturating Throttle instead of being favored.
    ExperimentConfig cfg = dfqConfig();
    cfg.measure = sec(4);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("glxgears"),
        WorkloadSpec::throttle(usec(19)),
    });

    // glxgears needs only ~half the device, so a perfectly informed
    // scheduler would hold it well under 2x; the size-share estimate
    // overcharges it into denial instead.
    EXPECT_GT(sd[0], 2.0);
}

TEST(DisengagedFq, VendorStatisticsFixTheGlxgearsAnomaly)
{
    // With vendor-exported per-context busy counters (the Section 6.1
    // world), the overcharge disappears and the light graphics task is
    // treated according to its true usage.
    ExperimentConfig cfg = dfqConfig();
    cfg.measure = sec(4);

    ExperimentRunner share(cfg);
    const auto sd_share = share.slowdowns({
        WorkloadSpec::app("glxgears"),
        WorkloadSpec::throttle(usec(19)),
    });

    cfg.dfq.attribution = DfqConfig::Attribution::DeviceCounters;
    ExperimentRunner vendor(cfg);
    const auto sd_vendor = vendor.slowdowns({
        WorkloadSpec::app("glxgears"),
        WorkloadSpec::throttle(usec(19)),
    });

    EXPECT_LT(sd_vendor[0], sd_share[0] - 0.2);
}

TEST(DisengagedFq, PerTaskStateStaysBoundedAsTasksRetire)
{
    // Open-system churn under vendor-counter attribution: every
    // departed session's pid must leave the scheduler's pid-keyed
    // tables, or they grow by one entry per session for the life of
    // the device.
    ExperimentConfig cfg = dfqConfig();
    cfg.dfq.attribution = DfqConfig::Attribution::DeviceCounters;
    cfg.fleet.devices = 1;
    cfg.serve.slotsPerDevice = 3;
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    ServeWorld world(cfg, {{w, ArrivalSpec::poisson(40.0, msec(1800)),
                            LifetimeSpec::fixed(msec(60))}});
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    auto *dfq = dynamic_cast<DisengagedFairQueueing *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(dfq, nullptr);
    EXPECT_GE(r.departures, 40u) << "too little churn to mean anything";
    EXPECT_GE(dfq->episodes(), 20u);
    // Two tables, at most one entry each per live task.
    EXPECT_LE(dfq->perTaskEntries(), 2 * cfg.serve.slotsPerDevice);
}

} // namespace
} // namespace neon
