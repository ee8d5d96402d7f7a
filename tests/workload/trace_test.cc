/**
 * @file
 * Tests for trace record/replay: capture a live workload's request
 * stream, serialize it, replay it, and get the same behaviour.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "workload/trace.hh"

namespace neon
{
namespace
{

RequestTraceLog
recordThrottle(Tick size, Tick duration)
{
    ExperimentConfig cfg;
    cfg.measure = duration;

    World world(cfg);
    TraceRecorder rec;
    rec.attach(world.fleet.stack(0).device);
    Task &t = world.spawn(WorkloadSpec::throttle(size));
    world.start();
    world.runFor(cfg.warmup + duration);
    return rec.traceOf(t.pid());
}

TEST(TraceRecorder, CapturesTheRequestStream)
{
    const RequestTraceLog log = recordThrottle(usec(100), msec(50));
    // ~(50+400)ms of back-to-back 100us blocking requests.
    EXPECT_GT(log.size(), 3000u);
    EXPECT_NEAR(toUsec(log.totalService()) / log.size(), 100.0, 2.0);

    // Offsets are rebased and monotone.
    EXPECT_EQ(log.events.front().offset, 0);
    for (std::size_t i = 1; i < log.events.size(); ++i)
        EXPECT_GE(log.events[i].offset, log.events[i - 1].offset);
}

TEST(TraceLog, SerializationRoundTrips)
{
    const RequestTraceLog log = recordThrottle(usec(430), msec(20));

    std::stringstream ss;
    log.save(ss);
    const RequestTraceLog loaded = RequestTraceLog::load(ss);

    ASSERT_EQ(loaded.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(loaded.events[i].offset, log.events[i].offset);
        EXPECT_EQ(loaded.events[i].cls, log.events[i].cls);
        EXPECT_EQ(loaded.events[i].service, log.events[i].service);
        EXPECT_EQ(loaded.events[i].awaited, log.events[i].awaited);
    }
}

TEST(TraceLogDeathTest, MalformedInputIsFatal)
{
    std::stringstream ss("12 notaclass 99 1\n");
    EXPECT_DEATH(RequestTraceLog::load(ss), "unknown request class");
}

TEST(TraceReplay, ReproducesDeviceDemand)
{
    RequestTraceLog log = recordThrottle(usec(100), msec(20));
    // Trim to a fixed-length pass for a predictable round.
    log.events.resize(50);

    ExperimentConfig cfg;
    cfg.measure = msec(200);
    World world(cfg);
    world.spawn(WorkloadSpec::custom(
        "replay", [log](Task &t, std::uint64_t) {
            return traceReplayBody(t, log);
        }));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    RunResult r = world.results();

    // Each pass replays 50 x ~100us of paced blocking requests.
    EXPECT_GT(r.tasks[0].rounds, 10u);
    EXPECT_NEAR(r.tasks[0].meanRoundUs, toUsec(log.span()) + 100.0,
                toUsec(log.span()) * 0.1);
}

TEST(TraceReplay, ReplayedWorkloadSchedulesFairly)
{
    RequestTraceLog log = recordThrottle(usec(430), msec(30));
    log.events.resize(40);

    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedTimeslice;
    cfg.measure = sec(2);
    ExperimentRunner runner(cfg);

    const WorkloadSpec replay = WorkloadSpec::custom(
        "replay", [log](Task &t, std::uint64_t) {
            return traceReplayBody(t, log);
        });
    const auto sd = runner.slowdowns({
        replay,
        WorkloadSpec::throttle(usec(430)),
    });

    EXPECT_LT(sd[0], 2.6);
    EXPECT_LT(sd[1], 2.6);
}

TEST(TraceReplay, EmptyTraceFinishesImmediately)
{
    ExperimentConfig cfg;
    World world(cfg);
    world.spawn(WorkloadSpec::custom(
        "empty", [](Task &t, std::uint64_t) {
            return traceReplayBody(t, RequestTraceLog{});
        }));
    world.start();
    world.runFor(msec(10));
    EXPECT_TRUE(world.fleet.stack(0).kernel.tasks().at(0)->done());
}

} // namespace
} // namespace neon
