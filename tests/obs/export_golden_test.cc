/**
 * @file
 * Byte-exact pins of the trace-plane exports.
 *
 * A small traced serving run (four DFQ devices, the default trace
 * categories, a metrics sample period) writes trace.json,
 * records.jsonl and counters.csv. Each file's byte count and FNV-1a-64
 * digest is pinned, so any rewrite of the export path must reproduce
 * every exported byte: the number formatting, lane numbering, span
 * closing order and escaping included.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

namespace fs = std::filesystem;

struct FileDigest
{
    std::uint64_t bytes = 0;
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
};

FileDigest
digestFile(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    EXPECT_TRUE(is) << "missing export " << p;
    FileDigest d;
    for (std::istreambuf_iterator<char> it(is), end; it != end; ++it) {
        d.fnv ^= static_cast<unsigned char>(*it);
        d.fnv *= 0x100000001b3ULL;
        ++d.bytes;
    }
    return d;
}

TEST(ExportGolden, TracedServeRunExportsAreByteIdentical)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("neon_export_golden_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.25, 1.0, 1.0, 0.75};
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.measure = sec(1);
    cfg.observe.categories = obs::defaultTraceCategories;
    cfg.observe.bufferCapacity = std::size_t(1) << 18;
    cfg.observe.samplePeriod = msec(2);
    cfg.observe.tracePath = (dir / "trace.json").string();
    cfg.observe.countersCsvPath = (dir / "counters.csv").string();
    cfg.observe.recordsJsonlPath = (dir / "records.jsonl").string();

    WorkloadSpec small = WorkloadSpec::throttle(usec(100));
    small.label = "interactive";
    small.withDemand(0.5);
    WorkloadSpec big = WorkloadSpec::throttle(usec(1700));
    big.label = "batch";
    big.withDemand(2.0);
    const std::vector<ServeWorkloadSpec> classes = {
        {small, ArrivalSpec::poisson(75.0, msec(600)),
         LifetimeSpec::exponential(msec(200)), "interactive"},
        {big, ArrivalSpec::poisson(25.0, msec(600)),
         LifetimeSpec::exponential(msec(300)), "batch"},
    };

    ServeRunner runner(cfg);
    const ServeRunResult r = runner.run(classes, /*with_slowdowns=*/false);
    ASSERT_EQ(r.traceDrops, 0u) << "the pinned capture must be exact";

    const FileDigest trace = digestFile(dir / "trace.json");
    const FileDigest records = digestFile(dir / "records.jsonl");
    const FileDigest counters = digestFile(dir / "counters.csv");
    fs::remove_all(dir);

    EXPECT_EQ(trace.bytes, 7245608u);
    EXPECT_EQ(trace.fnv, 0x63c57688a5d0e2fdULL);
    EXPECT_EQ(records.bytes, 9301625u);
    EXPECT_EQ(records.fnv, 0xa448691f8afef4c5ULL);
    EXPECT_EQ(counters.bytes, 32034u);
    EXPECT_EQ(counters.fnv, 0xe1a266235081f9a2ULL);
}

} // namespace
} // namespace neon
