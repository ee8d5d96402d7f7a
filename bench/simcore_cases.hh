/**
 * @file
 * The simulation-core microbenchmark workloads, shared between the
 * google-benchmark wrappers (micro_simcore.cc) and the JSON perf
 * reporter (perf_report.cc) so the two always measure the same code —
 * only the batch sizes differ, and those are parameters.
 */

#ifndef NEON_BENCH_SIMCORE_CASES_HH
#define NEON_BENCH_SIMCORE_CASES_HH

#include <cstdint>

#include "sim/event_queue.hh"

namespace neonbench
{

/** Schedule @p n one-shot events at distinct ticks, then drain. */
inline std::uint64_t
scheduleRunBatch(neon::EventQueue &eq, int n)
{
    for (int i = 0; i < n; ++i)
        eq.scheduleIn(i, [] {});
    return eq.drain();
}

/**
 * The polling-service / sampling-deadline shape: most scheduled events
 * are cancelled and replaced before they fire. Exercises O(1)
 * cancellation and stale-entry compaction. Returns the number of
 * schedule+cancel operations performed (the quantity of interest).
 */
inline std::uint64_t
scheduleCancelChurnBatch(neon::EventQueue &eq, int n)
{
    neon::EventId deadline = neon::invalidEventId;
    for (int i = 0; i < n; ++i) {
        if (deadline != neon::invalidEventId)
            eq.cancel(deadline);
        deadline = eq.scheduleIn(10'000'000 + i, [] {});
        eq.scheduleIn(i, [] {});
    }
    eq.cancel(deadline);
    eq.drain();
    return std::uint64_t(2) * static_cast<std::uint64_t>(n);
}

/**
 * Eight interleaved periodic streams on one queue — the fleet shape
 * from PR 1, where every device's poller, completions, and timers
 * multiply event volume on the shared timeline. Returns the number of
 * events executed.
 */
inline std::uint64_t
fleetInterleaveBatch(neon::EventQueue &eq, int fires_per_stream)
{
    constexpr int streams = 8;

    struct Stream
    {
        neon::EventQueue *eq;
        neon::Tick period;
        int remaining;

        void
        arm()
        {
            eq->scheduleIn(period, [this] {
                if (--remaining > 0)
                    arm();
            });
        }
    };

    Stream ss[streams];
    for (int i = 0; i < streams; ++i) {
        ss[i] = {&eq, neon::Tick(7 + i), fires_per_stream};
        ss[i].arm();
    }
    return eq.drain();
}

} // namespace neonbench

#endif // NEON_BENCH_SIMCORE_CASES_HH
