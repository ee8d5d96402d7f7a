/**
 * @file
 * Tests for the engaged (classic) start-time fair queueing baseline.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sched/engaged_fq.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

ExperimentConfig
efqConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::EngagedFq;
    cfg.measure = sec(2);
    return cfg;
}

TEST(EngagedFq, EverySubmissionFaults)
{
    ExperimentConfig cfg = efqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(100));

    Channel *c = world.fleet.stack(0).kernel.activeChannels()[0];
    EXPECT_EQ(c->doorbell().directWrites(), 0u);
    EXPECT_GT(c->doorbell().faults(), 100u);
}

TEST(EngagedFq, FairSharingSmallVsLarge)
{
    ExperimentConfig cfg = efqConfig();
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::throttle(usec(100)),
        WorkloadSpec::throttle(usec(1700)),
    });

    // Start-tag ordering equalizes device time: the small-request task
    // gets one request per large request... but tags, not counts,
    // decide: both around 2x.
    EXPECT_NEAR(sd[0], 2.0, 0.6);
    EXPECT_NEAR(sd[1], 2.0, 0.6);
}

TEST(EngagedFq, SizeEstimateConverges)
{
    ExperimentConfig cfg = efqConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(sec(1));

    auto *efq =
        dynamic_cast<EngagedFairQueueing *>(world.fleet.stack(0).sched.get());
    ASSERT_NE(efq, nullptr);
    // finish tags advance by ~estimate per request; estimate itself is
    // internal, but the system virtual time tracks real usage.
    EXPECT_GT(toMsec(efq->systemVtime()), 500.0);
}

TEST(EngagedFq, PerRequestOverheadExceedsDisengagedFq)
{
    const WorkloadSpec w = WorkloadSpec::throttle(usec(19));

    ExperimentConfig e = efqConfig();
    ExperimentConfig d = efqConfig();
    d.sched = SchedKind::DisengagedFq;

    ExperimentRunner er(e), dr(d);
    const double solo = er.soloRoundUs(w);
    const double efq_round = er.run({w}).tasks[0].meanRoundUs;
    const double dfq_round = dr.run({w}).tasks[0].meanRoundUs;

    const double efq_overhead = efq_round / solo - 1.0;
    const double dfq_overhead = dfq_round / solo - 1.0;
    // This is exactly what disengagement buys on small requests.
    EXPECT_GT(efq_overhead, 3.0 * dfq_overhead);
}

TEST(EngagedFq, KillsStuckRequest)
{
    ExperimentConfig cfg = efqConfig();
    cfg.engagedFq.killThreshold = msec(100);
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
    EXPECT_GT(r.tasks[1].rounds, 5000u);
}

} // namespace
} // namespace neon
