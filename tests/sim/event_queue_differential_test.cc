/**
 * @file
 * Differential test of the event queue against a reference model.
 *
 * A seeded random mix of operations drives the real EventQueue and a
 * std::set ordered by (when, insertion sequence) side by side: schedules
 * at the current tick (the zero-delay lane), near and far; cancels of
 * live, already-run and self ids, including lane entries at the same
 * tick; reschedules and bursts from inside callbacks, with a burst large
 * enough to grow the slot pool by several chunks mid-callback; and
 * runUntil horizons that land exactly on event ticks. Every executed
 * event must be the reference's minimum, and the live count and clock
 * must agree after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace neon
{
namespace
{

class Differential
{
  public:
    explicit Differential(std::uint64_t seed) : rng(seed) {}

    void
    run(int ops)
    {
        for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i)
            outerOp();
        // Callbacks stop spawning so the final drain terminates.
        spawning = false;
        eq.drain();
        EXPECT_TRUE(ref.empty());
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.pending(), 0u);
        EXPECT_EQ(eq.executed(), executed);
    }

    std::uint64_t executedCount() const { return executed; }
    std::size_t peakLive() const { return eq.stats().peakLive; }

  private:
    struct Item
    {
        EventId id;
        Tick when;
        bool live;
    };

    std::uint64_t
    pick(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    }

    /** A delay drawn from the three regimes: now, near, far. */
    Tick
    randomDelay()
    {
        switch (pick(3)) {
          case 0:
            return 0;
          case 1:
            return static_cast<Tick>(pick(4));
          default:
            return static_cast<Tick>(10 + pick(1000));
        }
    }

    std::uint64_t
    schedule(Tick delay)
    {
        const std::uint64_t label = items.size();
        const Tick when = eq.now() + delay;
        auto fn = [this, label] { onRun(label); };
        static_assert(EventCallback::fitsInline<decltype(fn)>);
        items.push_back({eq.schedule(when, fn), when, true});
        ref.insert({when, label});
        return label;
    }

    void
    cancel(std::uint64_t label)
    {
        Item &it = items[label];
        eq.cancel(it.id); // a no-op for ids that already ran or died
        if (it.live) {
            it.live = false;
            ref.erase({it.when, label});
        }
    }

    void
    cancelRandom()
    {
        if (!items.empty())
            cancel(pick(items.size()));
    }

    void
    checkConsistent()
    {
        ASSERT_EQ(eq.pending(), ref.size());
        ASSERT_EQ(eq.empty(), ref.empty());
    }

    void
    onRun(std::uint64_t label)
    {
        ++executed;
        ASSERT_FALSE(ref.empty()) << "ran " << label << " with none due";
        const auto first = *ref.begin();
        ASSERT_EQ(first.second, label) << "out of (when, seq) order";
        ASSERT_EQ(first.first, eq.now());
        ASSERT_TRUE(items[label].live);
        ref.erase(ref.begin());
        items[label].live = false;

        // Cancelling the running event's own id must do nothing.
        if (pick(8) == 0)
            eq.cancel(items[label].id);

        switch (spawning ? pick(10) : 1) {
          case 0: {
            // Same-tick lane entry, cancelled before it can run.
            const std::uint64_t l = schedule(0);
            if (pick(2) == 0)
                cancel(l);
            break;
          }
          case 1:
            // Cancel the newest lane entry another callback queued.
            if (!items.empty() && items.back().when == eq.now())
                cancel(items.size() - 1);
            break;
          case 2:
            // Reschedule: replace a random event with a fresh one.
            cancelRandom();
            schedule(randomDelay());
            break;
          case 3:
            if (!burstDone && pick(50) == 0) {
                // Grow the pool past one chunk from inside a callback;
                // this callback's own slot must survive the growth.
                burstDone = true;
                for (int i = 0; i < 700; ++i)
                    schedule(randomDelay());
                ASSERT_GT(eq.pending(), 512u);
            }
            break;
          default:
            if (ref.size() < 300)
                schedule(randomDelay());
            if (ref.size() < 300 && pick(2) == 0)
                schedule(randomDelay());
            break;
        }
        checkConsistent();
    }

    void
    outerOp()
    {
        switch (pick(6)) {
          case 0:
            for (int n = static_cast<int>(1 + pick(8)); n > 0; --n)
                schedule(randomDelay());
            break;
          case 1:
            cancelRandom();
            break;
          case 2: {
            // Horizon on an event tick (inclusive) or between ticks.
            Tick t = eq.now() + static_cast<Tick>(pick(50));
            if (!ref.empty() && pick(2) == 0)
                t = ref.begin()->first;
            const Tick before = eq.now();
            eq.runUntil(t);
            ASSERT_EQ(eq.now(), std::max(before, t));
            if (!ref.empty()) {
                ASSERT_GT(ref.begin()->first, t)
                    << "runUntil stopped early";
            }
            break;
          }
          case 3:
            eq.step();
            break;
          default:
            schedule(randomDelay());
            break;
        }
        checkConsistent();
    }

    EventQueue eq;
    std::mt19937_64 rng;
    std::vector<Item> items;                    ///< by label
    std::set<std::pair<Tick, std::uint64_t>> ref; ///< (when, label)
    std::uint64_t executed = 0;
    bool burstDone = false;
    bool spawning = true;
};

TEST(EventQueueDifferential, MatchesReferenceOrderAcrossSeeds)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 7919u, 123456789u}) {
        SCOPED_TRACE(seed);
        Differential d(seed);
        d.run(4000);
        EXPECT_GT(d.executedCount(), 4000u) << "mix too small to mean much";
    }
}

TEST(EventQueueDifferential, PoolGrowsPastOneChunkInsideCallback)
{
    // Seeds are cheap: keep going until one run has taken the burst
    // path, so the growth-during-dispatch case is always exercised.
    bool grew = false;
    for (std::uint64_t seed = 100; seed < 140 && !grew; ++seed) {
        Differential d(seed);
        d.run(4000);
        grew = d.peakLive() > 512;
    }
    EXPECT_TRUE(grew);
}

} // namespace
} // namespace neon
