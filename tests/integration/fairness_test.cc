/**
 * @file
 * Integration: fairness guarantees across schedulers and request-size
 * combinations (property-style sweeps over the Figure 6 grid), and the
 * Figure 7 efficiency ordering over the same grid.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "harness/experiment.hh"
#include "metrics/efficiency.hh"

namespace neon
{
namespace
{

/** (scheduler, co-runner request size in us). */
using FairParam = std::tuple<SchedKind, int>;

class FairSchedulerSweep
    : public ::testing::TestWithParam<FairParam>
{
};

TEST_P(FairSchedulerSweep, TwoSaturatingTasksShareWithinBound)
{
    const auto [kind, size_us] = GetParam();

    ExperimentConfig cfg;
    cfg.sched = kind;
    cfg.measure = sec(3);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(size_us)),
    });

    // Fair sharing: nobody starves. The engaged policies additionally
    // charge per-request interception, so their bound is looser for
    // tiny requests (the paper's "2x to almost 3x" observation), and
    // Disengaged Fair Queueing's guarantee is probabilistic with
    // imbalance up to roughly one inter-engagement interval.
    const bool engaged = kind == SchedKind::Timeslice ||
        kind == SchedKind::EngagedFq;
    double bound = 2.7;
    if (engaged && size_us < 50)
        bound = 3.4;
    else if (kind == SchedKind::DisengagedFq)
        bound = 3.0;
    EXPECT_LT(sd[0], bound) << "DCT starved";
    EXPECT_LT(sd[1], bound) << "Throttle starved";
    EXPECT_GT(sd[0], 1.2);
    EXPECT_GT(sd[1], 1.2);

    // Jain index over slowdowns: close to 1 for a fair pair.
    EXPECT_GT(jainIndex(sd), 0.93);
}

INSTANTIATE_TEST_SUITE_P(
    Figure6Grid, FairSchedulerSweep,
    ::testing::Combine(::testing::Values(SchedKind::Timeslice,
                                         SchedKind::DisengagedTimeslice,
                                         SchedKind::DisengagedFq,
                                         SchedKind::EngagedFq),
                       ::testing::Values(19, 106, 430, 1700)),
    [](const ::testing::TestParamInfo<FairParam> &info) {
        std::string n = schedKindName(std::get<0>(info.param)) + "_vs_" +
            std::to_string(std::get<1>(info.param)) + "us";
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

class DirectUnfairnessSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DirectUnfairnessSweep, LargeRequestsDominateSmallOnes)
{
    const int size_us = GetParam();

    ExperimentConfig cfg;
    cfg.measure = sec(2);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(size_us)),
    });

    // Per-request round-robin: DCT's penalty grows with the co-runner's
    // request size; the large-request task barely notices.
    EXPECT_GT(sd[0], 1.0 + size_us / 250.0);
    EXPECT_LT(sd[1], 1.6);
}

INSTANTIATE_TEST_SUITE_P(Figure6Direct, DirectUnfairnessSweep,
                         ::testing::Values(430, 1700));

class SchedulerScalability
    : public ::testing::TestWithParam<SchedKind>
{
};

TEST_P(SchedulerScalability, FourWayMixSharesFairly)
{
    // The Figure 8 mix: one large-request Throttle, three small apps.
    ExperimentConfig cfg;
    cfg.sched = GetParam();
    cfg.measure = sec(4);
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::throttle(usec(1700)),
        WorkloadSpec::app("BinarySearch"),
        WorkloadSpec::app("DCT"),
        WorkloadSpec::app("FFT"),
    });

    for (double s : sd) {
        EXPECT_GT(s, 2.0);
        EXPECT_LT(s, 6.5);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Figure8, SchedulerScalability,
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

TEST(NonsaturatingFairness, DfqIsWorkConservingTimesliceIsNot)
{
    // Figure 9/10: DCT against a Throttle sleeping 80% of the time.
    const std::vector<WorkloadSpec> duo = {
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700), 0.8),
    };

    ExperimentConfig ts_cfg;
    ts_cfg.sched = SchedKind::DisengagedTimeslice;
    ts_cfg.measure = sec(3);
    const auto sd_ts = ExperimentRunner(ts_cfg).slowdowns(duo);

    ExperimentConfig dfq_cfg;
    dfq_cfg.sched = SchedKind::DisengagedFq;
    dfq_cfg.measure = sec(3);
    const auto sd_dfq = ExperimentRunner(dfq_cfg).slowdowns(duo);

    // Timeslice strands the sleeper's idle slices: DCT stuck near 2x.
    EXPECT_GT(sd_ts[0], 1.8);
    // DFQ hands the idle capacity to DCT.
    EXPECT_LT(sd_dfq[0], 1.6);
    // And the sleeper is not penalized for its idleness.
    EXPECT_LT(sd_dfq[1], 1.4);

    const double eff_ts = 1.0 / sd_ts[0] + 1.0 / sd_ts[1];
    const double eff_dfq = 1.0 / sd_dfq[0] + 1.0 / sd_dfq[1];
    EXPECT_GT(eff_dfq, eff_ts + 0.3);
}

TEST(EfficiencyPairs, EngagedTimesliceIsLeastEfficientOverFigure7Grid)
{
    // Figure 7: the four apps against Throttle at four request sizes.
    // Each scheduler's concurrency efficiency summed over the 16 cells
    // is taken relative to direct access's sum over the same cells.
    // Engaged Timeslice pays interception on every request, so it must
    // lose more than both disengaged schedulers (paper: ~19% against
    // ~10% and ~4%).
    const std::vector<std::string> apps = {"DCT", "FFT", "glxgears",
                                           "oclParticles"};
    const std::vector<int> sizes_us = {19, 106, 430, 1700};

    ExperimentConfig cfg;
    cfg.warmup = msec(100);
    cfg.measure = msec(500);

    std::map<SchedKind, double> sum;
    for (const auto &app : apps) {
        for (int us : sizes_us) {
            const std::vector<WorkloadSpec> pair = {
                WorkloadSpec::app(app),
                WorkloadSpec::throttle(usec(us)),
            };
            const ExperimentRunner solo(cfg);
            const std::vector<double> solo_us = {
                solo.soloRoundUs(pair[0]), solo.soloRoundUs(pair[1])};

            for (SchedKind kind : paperSchedulers) {
                cfg.sched = kind;
                const RunResult r = ExperimentRunner(cfg).run(pair);
                sum[kind] += concurrencyEfficiency(
                    solo_us,
                    {r.tasks[0].meanRoundUs, r.tasks[1].meanRoundUs});
            }
        }
    }

    const auto rel = [&](SchedKind kind) {
        return sum[kind] / sum[SchedKind::Direct];
    };
    const double ts = rel(SchedKind::Timeslice);
    EXPECT_LT(ts, rel(SchedKind::DisengagedTimeslice))
        << "engaged Timeslice no less efficient than Disengaged Timeslice";
    EXPECT_LT(ts, rel(SchedKind::DisengagedFq))
        << "engaged Timeslice no less efficient than DFQ";
}

} // namespace
} // namespace neon
