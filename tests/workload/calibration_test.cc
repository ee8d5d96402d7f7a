/**
 * @file
 * Calibration: every profile, run solo under direct access, must
 * reproduce its Table 1 per-round time; compute profiles must also
 * reproduce the per-request service average. This is the contract the
 * benchmark reproductions depend on.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace neon
{
namespace
{

class CalibrationTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CalibrationTest, SoloRoundTimeMatchesTable1)
{
    const AppProfile &profile = AppRegistry::byName(GetParam());

    ExperimentConfig cfg;
    cfg.measure = sec(2);
    cfg.collectTraces = true;

    World world(cfg);
    Task &t = world.spawn(WorkloadSpec::app(profile.name));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    RunResult r = world.results();

    EXPECT_NEAR(r.tasks[0].meanRoundUs, profile.paperRoundUs,
                profile.paperRoundUs * 0.08)
        << profile.name << " round time off Table 1";

    // Per-request service: compare the awaited-request average against
    // the paper's value (within 10%; combined apps report a blended
    // figure, so only pure compute apps are checked).
    if (!profile.usesGraphics()) {
        const auto &pt = world.traceOf(0).of(t.pid());
        EXPECT_NEAR(pt.serviceAccumUs.mean(), profile.paperReqUs,
                    profile.paperReqUs * 0.10)
            << profile.name << " request size off Table 1";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CalibrationTest,
    ::testing::Values("BinarySearch", "BitonicSort", "DCT", "EigenValue",
                      "FastWalshTransform", "FFT", "FloydWarshall",
                      "LUDecomposition", "MatrixMulDouble",
                      "MatrixMultiplication", "MatrixTranspose",
                      "PrefixSum", "RadixSort", "Reduction",
                      "ScanLargeArrays", "glxgears", "oclParticles",
                      "simpleTexture3D"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace neon
