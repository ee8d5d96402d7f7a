/**
 * @file
 * Proves the acceptance criterion that steady-state schedule/cancel/
 * step on the event queue performs zero heap allocations.
 *
 * The global operator new/delete pair below counts every allocation in
 * the test binary; each test warms the queue (pool, heap and lane
 * growth are amortized start-up costs), then replays the identical
 * workload and requires the allocation counter not to move.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hh"

namespace
{

std::atomic<std::uint64_t> gAllocCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++gAllocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms must come from the same malloc as the deletes
// above: std::stable_sort's temporary buffer allocates with
// new(nothrow) and frees with sized delete, which ASan reports as an
// alloc-dealloc mismatch if only one side is replaced.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace neon
{
namespace
{

/**
 * A mixed steady-state workload: periodic self-rescheduling ticks
 * (polling service shape), schedule-then-cancel deadlines (sampling /
 * timeslice shape), and plain one-shot events (request completions).
 */
std::uint64_t
runWorkload(EventQueue &eq, int rounds)
{
    struct Periodic
    {
        EventQueue &eq;
        std::uint64_t fires = 0;
        int remaining;

        void
        arm()
        {
            eq.scheduleIn(10, [this] {
                ++fires;
                if (--remaining > 0)
                    arm();
            });
        }
    };

    Periodic p{eq, 0, rounds};
    p.arm();

    EventId deadline = invalidEventId;
    for (int i = 0; i < rounds; ++i) {
        eq.scheduleIn(5, [] {});
        if (deadline != invalidEventId)
            eq.cancel(deadline);
        deadline = eq.scheduleIn(100000, [] {});
        eq.runFor(10);
    }
    eq.cancel(deadline);
    eq.drain();
    return p.fires;
}

TEST(EventCoreAllocation, SteadyStateIsAllocationFree)
{
    EventQueue eq;

    // Warm-up: grows the slot pool and heap to this workload's
    // high-water mark (vector capacity persists afterwards).
    runWorkload(eq, 2000);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t fires = runWorkload(eq, 2000);
    const std::uint64_t after = gAllocCount.load();

    EXPECT_EQ(fires, 2000u);
    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/cancel/step allocated "
        << (after - before) << " times";
}

/**
 * The zero-delay lane's steady state: a completion-like event wakes a
 * chain of same-tick follow-ups (doorbell write done -> resume ->
 * next submission), some of which are cancelled before they run.
 */
std::uint64_t
runZeroDelayWorkload(EventQueue &eq, int rounds)
{
    struct Chain
    {
        EventQueue &eq;
        std::uint64_t hops = 0;

        void
        hop(int left)
        {
            ++hops;
            if (left > 0)
                eq.scheduleIn(0, [this, left] { hop(left - 1); });
        }
    };

    Chain c{eq};
    for (int i = 0; i < rounds; ++i) {
        eq.scheduleIn(7, [&c] { c.hop(4); });
        eq.scheduleIn(7, [&c, &eq] {
            // A same-tick entry cancelled while still in the lane.
            const EventId doomed = eq.scheduleIn(0, [&c] { c.hop(0); });
            eq.cancel(doomed);
            c.hop(2);
        });
        eq.runFor(10);
    }
    eq.drain();
    return c.hops;
}

TEST(EventCoreAllocation, ZeroDelayLaneIsAllocationFree)
{
    EventQueue eq;
    runZeroDelayWorkload(eq, 2000);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t hops = runZeroDelayWorkload(eq, 2000);
    const std::uint64_t after = gAllocCount.load();

    EXPECT_EQ(hops, 2000u * (5 + 3));
    EXPECT_EQ(after - before, 0u)
        << "steady-state zero-delay scheduling allocated "
        << (after - before) << " times";
}

} // namespace
} // namespace neon
