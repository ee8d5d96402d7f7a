/**
 * @file
 * Unit tests for the polling-thread service timing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/polling_service.hh"

namespace neon
{
namespace
{

TEST(PollingService, PeriodicTicks)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    std::vector<Tick> ticks;
    poll.onPoll = [&](Tick t) { ticks.push_back(t); };
    poll.start();
    eq.runUntil(msec(5) + 1);
    EXPECT_EQ(ticks.size(), 5u);
    EXPECT_EQ(ticks.front(), msec(1));
    EXPECT_EQ(ticks.back(), msec(5));
}

TEST(PollingService, StopCeasesTicks)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    int count = 0;
    poll.onPoll = [&](Tick) { ++count; };
    poll.start();
    eq.runUntil(msec(3));
    poll.stop();
    eq.runUntil(msec(10));
    EXPECT_EQ(count, 3);
}

TEST(PollingService, PromptNowFiresImmediatelyAndResetsPhase)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    std::vector<Tick> ticks;
    poll.onPoll = [&](Tick t) { ticks.push_back(t); };
    poll.start();

    eq.runUntil(usec(500));
    poll.promptNow();
    eq.runUntil(usec(500)); // run the prompted poll at t=500us
    ASSERT_EQ(ticks.size(), 1u);
    EXPECT_EQ(ticks[0], usec(500));

    // The next periodic tick is one full period after the prompt.
    eq.runUntil(usec(1500));
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(ticks[1], usec(1500));
}

TEST(PollingService, PromptBeforeStartIsIgnored)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    int count = 0;
    poll.onPoll = [&](Tick) { ++count; };
    poll.promptNow();
    eq.runUntil(msec(2));
    EXPECT_EQ(count, 0);
}

TEST(PollingService, SetPeriodTakesEffectOnNextCycle)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    std::vector<Tick> ticks;
    poll.onPoll = [&](Tick t) { ticks.push_back(t); };
    poll.start();
    eq.runUntil(msec(1));
    poll.setPeriod(msec(5));
    eq.runUntil(msec(11));
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[1], msec(6));
    EXPECT_EQ(ticks[2], msec(11));
}

TEST(PollingService, DoubleStartIsHarmless)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    int count = 0;
    poll.onPoll = [&](Tick) { ++count; };
    poll.start();
    poll.start();
    eq.runUntil(msec(2));
    EXPECT_EQ(count, 2);
}

TEST(PollingService, NonPositivePeriodIsFatal)
{
    // A zero period would re-poll at the same tick forever.
    EventQueue eq;
    PollingService poll(eq, msec(1));
    EXPECT_EXIT(poll.setPeriod(0), testing::ExitedWithCode(1),
                "pollPeriod = 0: the polling period must be positive");
    EXPECT_EXIT(poll.setPeriod(-1), testing::ExitedWithCode(1),
                "pollPeriod = -1");
}

} // namespace
} // namespace neon
