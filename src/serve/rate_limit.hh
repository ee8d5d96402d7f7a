/**
 * @file
 * Per-tenant token-bucket rate limiting ahead of the AdmissionController.
 *
 * Buckets hold integer tick-units (one token == `period` ticks of
 * credit, with period = 1e9 / ratePerSec), refill 1:1 with virtual
 * time, and are full at creation. All arithmetic past the one-time
 * rounding of period and capacity is exact integer math on the virtual
 * clock, so decisions are bit-identical across repeats. The limiter is pure bookkeeping like the AdmissionController:
 * it never touches the fleet or the event queue.
 */

#ifndef NEON_SERVE_RATE_LIMIT_HH
#define NEON_SERVE_RATE_LIMIT_HH

#include <cstdint>
#include <map>
#include <string>

#include "serve/serve_config.hh"
#include "sim/types.hh"

namespace neon
{

/** One tenant's bucket. Balance and capacity are in tick-units. */
class TokenBucket
{
  public:
    TokenBucket(const TokenBucketConfig &cfg);

    /**
     * Refill up to @p now and try to spend one token. Returns true if
     * the token was available (arrival passes), false if the bucket is
     * empty (arrival throttled). @p now must be non-decreasing across
     * calls — virtual time, not wall time.
     */
    bool tryAcquire(Tick now);

    /** Whole tokens currently available at @p now (refills first). */
    std::uint64_t availableTokens(Tick now);

    /** Ticks of credit one token costs (1e9 / ratePerSec, rounded). */
    Tick tokenPeriod() const { return period; }

    /** Bucket capacity in tick-units (burst * period, rounded). */
    Tick capacityTicks() const { return capacity; }

  private:
    void refill(Tick now);

    Tick period = 0;     ///< tick-units per token
    Tick capacity = 0;   ///< max balance
    Tick balance = 0;    ///< current credit, tick-units
    Tick lastRefill = 0; ///< virtual time of last refill
};

/**
 * The front door's rate limiter: one lazily-created TokenBucket per
 * tenant, all built from the same config template. Disabled config
 * (ratePerSec == 0) admits everything and creates nothing.
 */
class TenantRateLimiter
{
  public:
    explicit TenantRateLimiter(const TokenBucketConfig &cfg) : cfg(cfg) {}

    /**
     * Charge an arrival of @p tenant at virtual time @p now against
     * its bucket. True = pass on to admission; false = throttle (the
     * caller records the session with a Throttled outcome — throttled
     * arrivals are counted, never silently dropped).
     */
    bool allow(const std::string &tenant, Tick now);

    bool enabled() const { return cfg.enabled(); }
    std::uint64_t passed() const { return nPassed; }
    std::uint64_t throttled() const { return nThrottled; }

    /** Throttled arrivals of one tenant (tests/metrics). */
    std::uint64_t throttledOf(const std::string &tenant) const;

  private:
    TokenBucketConfig cfg;
    std::map<std::string, TokenBucket> buckets;
    std::map<std::string, std::uint64_t> throttledByTenant;
    std::uint64_t nPassed = 0;
    std::uint64_t nThrottled = 0;
};

} // namespace neon

#endif // NEON_SERVE_RATE_LIMIT_HH
