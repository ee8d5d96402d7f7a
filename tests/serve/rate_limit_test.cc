/**
 * @file
 * Unit tests for the token-bucket rate limiter: exact integer refill on
 * the virtual clock, burst exhaustion, per-tenant isolation, and
 * bit-identical decisions across repeats.
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/rate_limit.hh"

namespace neon
{
namespace
{

TokenBucketConfig
bucketCfg(double rate, double burst = 1.0)
{
    TokenBucketConfig cfg;
    cfg.ratePerSec = rate;
    cfg.burst = burst;
    return cfg;
}

TEST(TokenBucket, FullAtCreationAdmitsTheBurst)
{
    // 100/s with burst 4: four tokens at t=0, the fifth call fails.
    TokenBucket b(bucketCfg(100.0, 4.0));
    EXPECT_EQ(b.availableTokens(0), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(b.tryAcquire(0)) << "token " << i;
    EXPECT_FALSE(b.tryAcquire(0));
    EXPECT_EQ(b.availableTokens(0), 0u);
}

TEST(TokenBucket, PeriodIsExactIntegerTicks)
{
    // 100/s -> one token per 10 ms of virtual time, exactly.
    TokenBucket b(bucketCfg(100.0, 1.0));
    EXPECT_EQ(b.tokenPeriod(), msec(10));
    EXPECT_EQ(b.capacityTicks(), msec(10));
}

TEST(TokenBucket, RefillsExactlyOnePeriodPerToken)
{
    TokenBucket b(bucketCfg(100.0, 1.0));
    EXPECT_TRUE(b.tryAcquire(0));
    EXPECT_FALSE(b.tryAcquire(0));
    // One tick short of the period: still empty.
    EXPECT_FALSE(b.tryAcquire(msec(10) - 1));
    // Exactly one period later the token is back.
    EXPECT_TRUE(b.tryAcquire(msec(10)));
    EXPECT_FALSE(b.tryAcquire(msec(10)));
}

TEST(TokenBucket, PartialCreditCarriesAcrossCalls)
{
    // Refill credit accumulates in tick-units: two half-periods make a
    // whole token even though neither alone does.
    TokenBucket b(bucketCfg(100.0, 1.0));
    EXPECT_TRUE(b.tryAcquire(0));
    EXPECT_FALSE(b.tryAcquire(msec(5)));
    EXPECT_TRUE(b.tryAcquire(msec(10)));
}

TEST(TokenBucket, IdleAccumulationCapsAtBurst)
{
    // A long idle gap refills to capacity, never beyond it.
    TokenBucket b(bucketCfg(1000.0, 3.0));
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(b.tryAcquire(0));
    EXPECT_EQ(b.availableTokens(sec(100)), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(b.tryAcquire(sec(100))) << "token " << i;
    EXPECT_FALSE(b.tryAcquire(sec(100)));
}

TEST(TokenBucket, DecisionsAreBitIdenticalAcrossRepeats)
{
    // The same virtual-time call sequence yields the same admit/deny
    // pattern every run.
    const std::vector<Tick> calls = {0,        usec(100), usec(900),
                                     msec(1),  msec(1),   msec(2),
                                     msec(25), msec(25),  msec(26)};
    std::vector<bool> first;
    for (int rep = 0; rep < 3; ++rep) {
        TokenBucket b(bucketCfg(200.0, 2.0));
        std::vector<bool> got;
        for (Tick t : calls)
            got.push_back(b.tryAcquire(t));
        if (rep == 0)
            first = got;
        else
            EXPECT_EQ(got, first) << "repeat " << rep;
    }
}

TEST(TokenBucket, HighRateFloorsPeriodAtOneTick)
{
    // Faster than one token per tick collapses to period 1: every
    // distinct tick has credit, so nothing is ever throttled for long.
    TokenBucket b(bucketCfg(2e9, 1.0));
    EXPECT_EQ(b.tokenPeriod(), 1);
    EXPECT_TRUE(b.tryAcquire(0));
    EXPECT_TRUE(b.tryAcquire(1));
}

TEST(TenantRateLimiter, DisabledPassesEverything)
{
    TenantRateLimiter lim(TokenBucketConfig{});
    EXPECT_FALSE(lim.enabled());
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(lim.allow("anyone", 0));
    EXPECT_EQ(lim.passed(), 50u);
    EXPECT_EQ(lim.throttled(), 0u);
}

TEST(TenantRateLimiter, IsolatesTenants)
{
    // Tenant A burning its burst must not spend tenant B's tokens.
    TenantRateLimiter lim(bucketCfg(10.0, 2.0));
    EXPECT_TRUE(lim.allow("A", 0));
    EXPECT_TRUE(lim.allow("A", 0));
    EXPECT_FALSE(lim.allow("A", 0));
    EXPECT_TRUE(lim.allow("B", 0));
    EXPECT_TRUE(lim.allow("B", 0));
    EXPECT_FALSE(lim.allow("B", 0));
    EXPECT_EQ(lim.throttledOf("A"), 1u);
    EXPECT_EQ(lim.throttledOf("B"), 1u);
    EXPECT_EQ(lim.throttledOf("C"), 0u);
}

TEST(TenantRateLimiter, CountersPartitionAllArrivals)
{
    TenantRateLimiter lim(bucketCfg(100.0, 1.0));
    std::uint64_t calls = 0;
    for (int i = 0; i < 20; ++i, ++calls)
        (void)lim.allow("t", msec(i)); // one token per 10 ms: half pass
    EXPECT_EQ(lim.passed() + lim.throttled(), calls);
    EXPECT_GT(lim.passed(), 0u);
    EXPECT_GT(lim.throttled(), 0u);
    EXPECT_EQ(lim.throttledOf("t"), lim.throttled());
}

TEST(TenantRateLimiter, RefillRestoresThrottledTenant)
{
    TenantRateLimiter lim(bucketCfg(100.0, 1.0));
    EXPECT_TRUE(lim.allow("t", 0));
    EXPECT_FALSE(lim.allow("t", usec(1)));
    EXPECT_TRUE(lim.allow("t", msec(10) + usec(1)));
    EXPECT_EQ(lim.passed(), 2u);
    EXPECT_EQ(lim.throttled(), 1u);
}

} // namespace
} // namespace neon
