/**
 * @file
 * Integration: protection against adversarial applications — infinite
 * kernels, batching hogs, and the channel-exhaustion DoS of Sec. 6.3.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

class ProtectionSweep : public ::testing::TestWithParam<SchedKind>
{
};

TEST_P(ProtectionSweep, InfiniteKernelIsKilledVictimRecovers)
{
    ExperimentConfig cfg;
    cfg.sched = GetParam();
    cfg.timeslice.killThreshold = msec(100);
    cfg.dfq.killThreshold = msec(100);
    cfg.engagedFq.killThreshold = msec(100);
    cfg.measure = sec(2);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::custom("malicious",
                             [](Task &t, std::uint64_t) {
                                 return infiniteKernelBody(t, 5,
                                                           usec(100));
                             }),
        WorkloadSpec::throttle(usec(100)),
    });

    EXPECT_EQ(r.kills, 1u);
    EXPECT_TRUE(r.byLabel("malicious").killed);
    // After the kill the victim owns the device: a 2s window minus the
    // detection latency yields most of the solo round count.
    EXPECT_GT(r.byLabel("Throttle(100us)").rounds, 12000u);
}

TEST_P(ProtectionSweep, BatchingHogIsContained)
{
    // The Section 1 adversary: batch work into huge requests to hog a
    // work-conserving device.
    ExperimentConfig cfg;
    cfg.sched = GetParam();
    cfg.measure = sec(3);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("FFT"),
        WorkloadSpec::custom("hog",
                             [](Task &t, std::uint64_t) {
                                 return batchingHogBody(t, msec(8));
                             }),
    });

    // The victim still gets roughly half the device over time.
    EXPECT_LT(sd[0], 3.2);
}

INSTANTIATE_TEST_SUITE_P(
    FairSchedulers, ProtectionSweep,
    ::testing::Values(SchedKind::Timeslice,
                      SchedKind::DisengagedTimeslice,
                      SchedKind::DisengagedFq),
    [](const ::testing::TestParamInfo<SchedKind> &info) {
        std::string n = schedKindName(info.param);
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

TEST(BatchingHogBaseline, DirectAccessLetsTheHogWin)
{
    ExperimentConfig cfg;
    cfg.measure = sec(3);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("FFT"),
        WorkloadSpec::custom("hog",
                             [](Task &t, std::uint64_t) {
                                 return batchingHogBody(t, msec(8));
                             }),
    });

    // With no management, each FFT request waits behind an 8ms batch.
    EXPECT_GT(sd[0], 20.0);
}

TEST(ChannelDos, UnprotectedAttackerExhaustsTheDevice)
{
    ExperimentConfig cfg;
    cfg.measure = msec(100);

    World world(cfg);
    DosOutcome attacker, victim;
    world.spawn(WorkloadSpec::custom(
        "attacker", [&attacker](Task &t, std::uint64_t) {
            return channelDosBody(t, &attacker);
        }));
    world.start();
    world.runFor(msec(50));

    // The paper's observation: ~48 contexts (one compute + one DMA
    // channel each) exhaust the channel pool.
    EXPECT_EQ(attacker.contextsCreated, 48);
    EXPECT_EQ(attacker.firstFailure, OpenResult::OutOfChannels);

    // A victim arriving afterwards cannot use the GPU at all.
    world.spawn(WorkloadSpec::custom(
        "victim", [&victim](Task &t, std::uint64_t) {
            return dosVictimBody(t, &victim, usec(100));
        }));
    // (spawn after start: start the task directly)
    Task *vt = world.fleet.stack(0).kernel.tasks().back();
    world.fleet.stack(0).kernel.startTask(
        *vt, dosVictimBody(*vt, &victim, usec(100)));
    world.runFor(msec(50));

    EXPECT_EQ(victim.channelsCreated, 0);
    EXPECT_EQ(victim.firstFailure, OpenResult::OutOfChannels);
}

TEST(ChannelDos, ProtectedAllocationPolicyStopsTheAttack)
{
    ExperimentConfig cfg;
    cfg.channelPolicy.protect = true;
    cfg.channelPolicy.perTaskLimit = 8;

    World world(cfg);
    DosOutcome attacker, victim;
    world.spawn(WorkloadSpec::custom(
        "attacker", [&attacker](Task &t, std::uint64_t) {
            return channelDosBody(t, &attacker);
        }));
    world.spawn(WorkloadSpec::custom(
        "victim", [&victim](Task &t, std::uint64_t) {
            return dosVictimBody(t, &victim, usec(100));
        }));
    world.start();
    world.runFor(msec(100));

    // The attacker hits its per-task limit C; the victim computes.
    EXPECT_EQ(attacker.firstFailure, OpenResult::PerTaskLimit);
    EXPECT_LE(attacker.channelsCreated, 8);
    EXPECT_EQ(victim.channelsCreated, 1);
}

} // namespace
} // namespace neon
