/**
 * @file
 * Tests for Disengaged Timeslice: direct access for the token holder,
 * interception only at slice edges.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sched/disengaged_timeslice.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

ExperimentConfig
dtsConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedTimeslice;
    cfg.measure = sec(2);
    return cfg;
}

TEST(DisengagedTimeslice, HolderRunsUnprotected)
{
    ExperimentConfig cfg = dtsConfig();
    World world(cfg);
    Task &t = world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(10));

    auto *dts = dynamic_cast<DisengagedTimeslice *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(dts, nullptr);
    ASSERT_EQ(dts->holder(), &t);
    for (Channel *c : world.fleet.stack(0).kernel.activeChannels())
        EXPECT_TRUE(c->doorbell().present());
}

TEST(DisengagedTimeslice, NonHolderStaysProtectedAndParks)
{
    ExperimentConfig cfg = dtsConfig();
    World world(cfg);
    Task &a = world.spawn(WorkloadSpec::throttle(usec(100)));
    Task &b = world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(10));

    auto *dts = dynamic_cast<DisengagedTimeslice *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(dts, nullptr);
    const Task *holder = dts->holder();
    ASSERT_NE(holder, nullptr);
    Task &other = (holder == &a) ? b : a;

    // The non-holder blocked on its first submission.
    EXPECT_TRUE(world.fleet.stack(0).kernel.hasParked(other));
    for (Channel *c : other.channels())
        EXPECT_FALSE(c->doorbell().present());
}

TEST(DisengagedTimeslice, MostSubmissionsAreDirect)
{
    ExperimentConfig cfg = dtsConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(sec(1));

    ASSERT_EQ(world.fleet.stack(0).kernel.activeChannels().size(), 1u);
    Channel *c = world.fleet.stack(0).kernel.activeChannels()[0];
    // Solo holder: virtually everything goes straight to the device;
    // only slice-edge drains intercept the odd submission.
    EXPECT_GT(c->doorbell().directWrites(),
              50 * c->doorbell().faults());
}

TEST(DisengagedTimeslice, StandaloneOverheadIsSmall)
{
    ExperimentConfig cfg = dtsConfig();
    ExperimentRunner runner(cfg);

    for (Tick size : {usec(19), usec(100), usec(430)}) {
        const WorkloadSpec w = WorkloadSpec::throttle(size);
        const double solo_direct = runner.soloRoundUs(w);
        const RunResult r = runner.run({w});
        const double slowdown = r.tasks[0].meanRoundUs / solo_direct;
        // Paper: generally no more than 2%; allow a little slack.
        EXPECT_LT(slowdown, 1.04) << "request size " << toUsec(size);
    }
}

TEST(DisengagedTimeslice, FairSharingBetweenSaturatingTasks)
{
    ExperimentConfig cfg = dtsConfig();
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("FFT"),
        WorkloadSpec::throttle(usec(430)),
    });

    // Paper: an almost uniform 2x for each co-runner.
    EXPECT_NEAR(sd[0], 2.0, 0.35);
    EXPECT_NEAR(sd[1], 2.0, 0.35);
}

TEST(DisengagedTimeslice, OveruseControlStillApplies)
{
    ExperimentConfig cfg = dtsConfig();
    cfg.measure = sec(3);

    World world(cfg);
    world.spawn(WorkloadSpec::throttle(msec(27)));
    world.spawn(WorkloadSpec::throttle(usec(500)));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    RunResult r = world.results();

    const double share0 = toSec(r.tasks[0].gpuBusy);
    const double share1 = toSec(r.tasks[1].gpuBusy);
    EXPECT_NEAR(share0 / (share0 + share1), 0.5, 0.12);
}

TEST(DisengagedTimeslice, ProtectionKillsRunawayTask)
{
    ExperimentConfig cfg = dtsConfig();
    cfg.timeslice.killThreshold = msec(100);
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
    EXPECT_GT(r.tasks[1].rounds, 10000u);
}

TEST(DisengagedTimeslice, EfficiencyBeatsEngagedTimeslice)
{
    // Small-request co-runners: the engaged variant pays per-request
    // interception, the disengaged one does not.
    const std::vector<WorkloadSpec> duo = {
        WorkloadSpec::app("FFT"),
        WorkloadSpec::throttle(usec(19)),
    };

    ExperimentConfig engaged = dtsConfig();
    engaged.sched = SchedKind::Timeslice;
    ExperimentConfig disengaged = dtsConfig();

    const auto sd_e = ExperimentRunner(engaged).slowdowns(duo);
    const auto sd_d = ExperimentRunner(disengaged).slowdowns(duo);

    const double eff_e = 1.0 / sd_e[0] + 1.0 / sd_e[1];
    const double eff_d = 1.0 / sd_d[0] + 1.0 / sd_d[1];
    EXPECT_GT(eff_d, eff_e + 0.05);
}

TEST(DisengagedTimeslice, ZeroSliceIsRejectedAtConstruction)
{
    ExperimentConfig cfg = dtsConfig();
    cfg.timeslice.slice = 0;
    EXPECT_EXIT(World world(cfg), testing::ExitedWithCode(1),
                "timeslice.slice = 0: the timeslice must be positive");
}

} // namespace
} // namespace neon
