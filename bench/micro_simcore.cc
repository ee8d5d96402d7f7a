/**
 * @file
 * Ablation A5: true wall-clock microbenchmarks (google-benchmark) of
 * the simulation substrate — event-queue throughput, device dispatch
 * rate, and end-to-end simulated-seconds per wall-second.
 */

#include <benchmark/benchmark.h>

#include "neon/neon.hh"
#include "simcore_cases.hh"

namespace
{

using namespace neon;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(neonbench::scheduleRunBatch(eq, 1024));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleCancelChurn(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(
            neonbench::scheduleCancelChurnBatch(eq, 1024));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 1024);
}
BENCHMARK(BM_EventQueueScheduleCancelChurn);

void
BM_EventQueueFleetScale(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(neonbench::fleetInterleaveBatch(eq, 512));
    }
    state.SetItemsProcessed(state.iterations() * 8 * 512);
}
BENCHMARK(BM_EventQueueFleetScale);

void
BM_DeviceRequestThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        UsageMeter meter;
        DeviceConfig cfg;
        GpuDevice dev(eq, cfg, meter);
        auto *ctx = dev.createContext(1);
        auto *chan = dev.createChannel(*ctx, RequestClass::Compute);
        for (int i = 0; i < 512; ++i) {
            GpuRequest r;
            r.serviceTime = usec(10);
            r.ref = chan->allocRef();
            dev.submit(*chan, r);
        }
        eq.drain();
        benchmark::DoNotOptimize(chan->completedRef());
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DeviceRequestThroughput);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    // Simulated seconds per wall second for a busy two-task world
    // under Disengaged Fair Queueing.
    for (auto _ : state) {
        ExperimentConfig cfg;
        cfg.sched = SchedKind::DisengagedFq;
        cfg.warmup = msec(50);
        cfg.measure = msec(500);
        ExperimentRunner runner(cfg);
        const RunResult r = runner.run({
            WorkloadSpec::app("DCT"),
            WorkloadSpec::throttle(usec(430)),
        });
        benchmark::DoNotOptimize(r.deviceBusy);
    }
    state.counters["sim_ms_per_iter"] = 550;
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
