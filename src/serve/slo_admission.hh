/**
 * @file
 * SLO-driven predictive admission: estimate the queueing delay an
 * arriving session would suffer and shed it at the front door when the
 * estimate exceeds its class's queue budget.
 *
 * The model is a fluid M/G/c approximation: the queued work ahead of
 * the arrival (per-class EWMA holding-time estimates, seeded from the
 * configured lifetime means) drains at `capacity x drainFactor` slots'
 * worth of service per tick, where drainFactor discounts the nominal
 * slot count by the fleet's observed speed-normalized advance (from
 * GlobalVirtualClock samples) — a fleet running slow or degraded sheds
 * earlier. Everything is plain arithmetic on values produced in
 * control-plane order, so decisions are deterministic across repeats.
 */

#ifndef NEON_SERVE_SLO_ADMISSION_HH
#define NEON_SERVE_SLO_ADMISSION_HH

#include <cstddef>
#include <map>
#include <string>

#include "serve/serve_config.hh"
#include "sim/types.hh"

namespace neon
{

/** Outcome of one front-door prediction. */
struct ShedDecision
{
    bool shed = false;   ///< prediction exceeded the budget
    Tick predicted = 0;  ///< estimated queueing delay
    Tick budget = 0;     ///< class queue budget compared against
};

/** Per-class holding-time estimator + fleet drain model. */
class SloAdmission
{
  public:
    explicit SloAdmission(const PredictiveShedConfig &cfg) : cfg(cfg) {}

    /**
     * Prime a class's holding estimate from its configured lifetime
     * mean, so the first predictions are sane before any departure has
     * been observed. A zero/unknown mean primes to the floor.
     */
    void seedHold(const std::string &label, Tick mean);

    /** Fold an observed admission-to-end holding time into the EWMA. */
    void noteHold(const std::string &label, Tick held);

    /** Current holding estimate of a class (>= cfg.holdFloor). */
    Tick holdOf(const std::string &label) const;

    /**
     * Fold a fleet progress observation: @p ratio is the observed
     * speed-normalized vtime advance over nominal (1.0 = fleet serving
     * at full configured speed). Clamped into [0.05, 1.0] so a paused
     * fleet predicts huge-but-finite delays.
     */
    void noteDrainRatio(double ratio);

    /** Smoothed drain discount in [0.05, 1.0] (1.0 until sampled). */
    double drainFactor() const { return drain; }

    /**
     * Pure prediction kernel (unit-testable without an engine):
     * queueing delay for work of @p aheadWork ticks queued ahead plus
     * @p residual ticks until the first slot frees, drained by
     * @p capacity slots discounted by @p drainFactor.
     */
    static Tick predictDelay(Tick aheadWork, Tick residual,
                             std::size_t capacity, double drainFactor);

    /**
     * Front-door decision for an arrival with queue budget @p budget:
     * shed iff safety x predicted > budget. A zero budget never sheds
     * (no queue target configured for the class).
     */
    ShedDecision decide(Tick aheadWork, Tick residual,
                        std::size_t capacity, Tick budget) const;

  private:
    PredictiveShedConfig cfg;
    std::map<std::string, Tick> holds; ///< per-class EWMA, ticks
    double drain = 1.0;
    bool drainSampled = false;
};

} // namespace neon

#endif // NEON_SERVE_SLO_ADMISSION_HH
