/**
 * @file
 * Tests for the direct-access baseline: maximal efficiency, zero
 * management, and the unfairness that motivates the paper.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

TEST(DirectScheduler, ChannelsRunUnprotected)
{
    ExperimentConfig cfg;
    cfg.measure = msec(200);

    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(50));

    ASSERT_EQ(world.fleet.stack(0).kernel.activeChannels().size(), 1u);
    Channel *c = world.fleet.stack(0).kernel.activeChannels()[0];
    EXPECT_TRUE(c->doorbell().present());
    EXPECT_GT(c->doorbell().directWrites(), 100u);
    EXPECT_EQ(c->doorbell().faults(), 0u);
}

TEST(DirectScheduler, StandaloneThroughputMatchesRequestRate)
{
    ExperimentConfig cfg;
    cfg.measure = sec(1);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({WorkloadSpec::throttle(usec(100))});
    // Blocking 100us requests back-to-back: ~10k rounds/s.
    EXPECT_NEAR(static_cast<double>(r.tasks[0].rounds), 10000.0, 300.0);
    EXPECT_NEAR(r.tasks[0].meanRoundUs, 100.2, 1.0);
}

TEST(DirectScheduler, WorkConservingUnderContention)
{
    ExperimentConfig cfg;
    cfg.measure = sec(1);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::throttle(usec(100)),
        WorkloadSpec::throttle(usec(100)),
    });
    // Two saturating tasks: the device is busy nearly all the time.
    EXPECT_GT(toSec(r.deviceBusy) / toSec(r.elapsed), 0.9);
}

TEST(DirectScheduler, LargeRequestsCrushSmallOnes)
{
    ExperimentConfig cfg;
    cfg.measure = sec(2);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
    });

    // The paper's headline unfairness: round-robin by request gives the
    // large-request app nearly everything.
    EXPECT_GT(sd[0], 10.0);
    EXPECT_LT(sd[1], 1.3);
}

TEST(DirectScheduler, NoProtectionAgainstInfiniteKernels)
{
    ExperimentConfig cfg;
    cfg.measure = msec(500);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::custom("malicious",
                             [](Task &t, std::uint64_t) {
                                 return infiniteKernelBody(t, 3,
                                                           usec(100));
                             }),
        WorkloadSpec::throttle(usec(100)),
    });

    // Nobody is killed, and the victim makes no progress once the
    // infinite kernel lands.
    EXPECT_EQ(r.kills, 0u);
    EXPECT_LT(r.tasks[1].rounds, 20u);
}

} // namespace
} // namespace neon
