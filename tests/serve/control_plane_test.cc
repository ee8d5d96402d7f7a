/**
 * @file
 * End-to-end tests of the serving control plane: token-bucket
 * throttling, SLO-predictive shedding, QoS preemption, exact outcome
 * conservation under every mix, repeat determinism with the control
 * plane on, and a regression pin that the disabled configuration has
 * zero behavioral footprint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

/** Small direct-access fleet for deterministic lifecycle scenarios. */
ExperimentConfig
controlConfig(std::size_t devices, std::size_t slots)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fleet.devices = devices;
    cfg.fleet.placement = PlacementKind::LeastLoaded;
    cfg.serve.slotsPerDevice = slots;
    cfg.measure = msec(200);
    return cfg;
}

ServeWorkloadSpec
classAt(const std::string &label, std::vector<Tick> times, Tick lifetime,
        QosClass qos = QosClass::Batch, Tick queueBudget = 0)
{
    WorkloadSpec w = WorkloadSpec::throttle(usec(100));
    w.label = label;
    ServeWorkloadSpec s{std::move(w), ArrivalSpec::trace(std::move(times)),
                        LifetimeSpec::fixed(lifetime)};
    s.qos = qos;
    s.queueBudget = queueBudget;
    return s;
}

/** Sessions still in-system at the horizon (no terminal outcome). */
std::uint64_t
inSystemCount(const ServeRunResult &r)
{
    std::uint64_t n = 0;
    for (const auto &s : r.sessions)
        if (!s.hasDeparted() && !s.killed && !s.shed && !s.throttled)
            ++n;
    return n;
}

/** The exact conservation identity every run must satisfy. */
void
expectExactConservation(const ServeRunResult &r)
{
    EXPECT_EQ(r.arrivals, r.departures + r.kills + r.shedSessions +
                              r.throttledSessions + inSystemCount(r));
    EXPECT_EQ(r.arrivals, r.sessions.size());
}

TEST(ControlPlane, ThrottledArrivalsCountedNeverDropped)
{
    // 100/s with burst 2: of five same-instant-ish arrivals, two pass
    // and three are throttled — each with a full session record, a
    // terminal outcome, and zero device time.
    ExperimentConfig cfg = controlConfig(1, 2);
    cfg.serve.rateLimit.ratePerSec = 100.0;
    cfg.serve.rateLimit.burst = 2.0;
    ServeRunner runner(cfg);

    const ServeRunResult r = runner.run(
        {classAt("t", {0, usec(1), usec(2), usec(3), usec(4)}, msec(10))},
        /*with_slowdowns=*/false);

    EXPECT_EQ(r.arrivals, 5u);
    EXPECT_EQ(r.throttledSessions, 3u);
    EXPECT_EQ(r.departures, 2u);
    EXPECT_EQ(r.shedSessions, 0u);
    EXPECT_EQ(r.slo.control.throttled, 3u);

    std::uint64_t throttled = 0;
    for (const auto &s : r.sessions) {
        if (!s.throttled)
            continue;
        ++throttled;
        EXPECT_FALSE(s.wasAdmitted()) << s.label;
        EXPECT_FALSE(s.shed) << s.label;
        EXPECT_EQ(s.busy, 0) << s.label;
        EXPECT_TRUE(s.devices.empty()) << s.label;
    }
    EXPECT_EQ(throttled, 3u);

    expectExactConservation(r);
    EXPECT_GT(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

TEST(ControlPlane, ThrottledTenantDoesNotStarvePeers)
{
    // Per-tenant buckets: one tenant hammering the front door must not
    // consume another tenant's tokens.
    ExperimentConfig cfg = controlConfig(2, 2);
    cfg.serve.rateLimit.ratePerSec = 100.0;
    cfg.serve.rateLimit.burst = 1.0;
    ServeRunner runner(cfg);

    const ServeRunResult r = runner.run(
        {classAt("noisy", {0, usec(1), usec(2), usec(3)}, msec(5)),
         classAt("quiet", {usec(10)}, msec(5))},
        /*with_slowdowns=*/false);

    EXPECT_EQ(r.arrivals, 5u);
    EXPECT_EQ(r.throttledSessions, 3u); // all from "noisy"
    EXPECT_TRUE(r.byLabel("quiet#4").hasDeparted());
    EXPECT_FALSE(r.byLabel("quiet#4").throttled);
    expectExactConservation(r);
}

TEST(ControlPlane, PredictiveShedFastFailsAtOverload)
{
    // One slot held for 50 ms and a 5 ms queue budget: the model
    // predicts a ~25 ms wait for the next arrivals and sheds them at
    // the front door — never admitted, never placed.
    ExperimentConfig cfg = controlConfig(1, 1);
    cfg.serve.shed.enabled = true;
    ServeRunner runner(cfg);

    const ServeRunResult r = runner.run(
        {classAt("c", {0, msec(1), msec(2)}, msec(50), QosClass::Batch,
                 msec(5))},
        /*with_slowdowns=*/false);

    EXPECT_EQ(r.arrivals, 3u);
    EXPECT_EQ(r.departures, 1u);
    EXPECT_EQ(r.shedSessions, 2u);
    EXPECT_EQ(r.predictiveSheds, 2u);
    EXPECT_EQ(r.slo.control.predictiveSheds, 2u);
    for (const auto &s : r.sessions) {
        if (!s.shed)
            continue;
        EXPECT_TRUE(s.shedPredicted) << s.label;
        EXPECT_FALSE(s.wasAdmitted()) << s.label;
        EXPECT_EQ(s.busy, 0) << s.label;
    }
    expectExactConservation(r);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

TEST(ControlPlane, ShedDisabledQueuesEverything)
{
    // The identical scenario with shedding off: arrivals queue and are
    // eventually served, at the cost of blowing the queue budget.
    ExperimentConfig cfg = controlConfig(1, 1);
    ServeRunner runner(cfg);

    const ServeRunResult r = runner.run(
        {classAt("c", {0, msec(1), msec(2)}, msec(50), QosClass::Batch,
                 msec(5))},
        /*with_slowdowns=*/false);

    EXPECT_EQ(r.arrivals, 3u);
    EXPECT_EQ(r.departures, 3u);
    EXPECT_EQ(r.shedSessions, 0u);
    EXPECT_EQ(r.predictiveSheds, 0u);
    // The budget was still measured: late departures miss it.
    ASSERT_FALSE(r.slo.goodputByClass.empty());
    EXPECT_LT(r.slo.goodputByClass[0].goodput.fraction, 1.0);
    // Per-class goodput partitions the overall counts.
    std::uint64_t eligible = 0, met = 0;
    for (const auto &g : r.slo.goodputByClass) {
        eligible += g.goodput.eligible;
        met += g.goodput.met;
    }
    EXPECT_EQ(eligible, r.slo.goodput.eligible);
    EXPECT_EQ(met, r.slo.goodput.met);
    expectExactConservation(r);
}

TEST(ControlPlane, PreemptionFreesSlotForInteractive)
{
    // A batch session holds the only slot; an interactive arrival
    // displaces it mid-request, takes the slot at its own arrival
    // tick, and the victim resumes after the backoff with its frozen
    // remaining lifetime — every device tick still accounted.
    ExperimentConfig cfg = controlConfig(1, 1);
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(2);
    cfg.measure = msec(300);

    ServeWorld world(cfg, {
                              classAt("bat", {0}, msec(50)),
                              classAt("int", {msec(10)}, msec(5),
                                      QosClass::Interactive),
                          });
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    EXPECT_EQ(r.preemptions, 1u);
    EXPECT_EQ(r.slo.control.preemptions, 1u);
    EXPECT_EQ(r.departures, 2u);
    EXPECT_EQ(r.kills, 0u);
    EXPECT_EQ(r.shedSessions, 0u);

    const ServeSessionResult &inter = r.byLabel("int#1");
    EXPECT_EQ(inter.admitted, inter.arrived); // no queueing at all
    EXPECT_EQ(inter.departed, msec(15));
    EXPECT_EQ(inter.preemptions, 0);

    const ServeSessionResult &bat = r.byLabel("bat#0");
    EXPECT_EQ(bat.preemptions, 1);
    // Ran 10 ms, displaced, resumed when the interactive left (15 ms)
    // with its frozen 40 ms remainder.
    EXPECT_EQ(bat.departed, msec(55));
    EXPECT_EQ(bat.devices.size(), 2u); // one device per incarnation

    // Victim-mid-request reconciliation: the session ledger equals the
    // ground-truth meters exactly across the preemption fold.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
    EXPECT_GT(session_busy, 0);

    expectExactConservation(r);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

TEST(ControlPlane, InteractiveAdmitsDuringVictimBackoff)
{
    // While the preempted batch session sits out its backoff window, a
    // second interactive arrival takes the next free slot ahead of it
    // even though the batch session arrived far earlier.
    ExperimentConfig cfg = controlConfig(1, 1);
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(10);
    cfg.measure = msec(300);

    ServeWorld world(cfg, {
                              classAt("bat", {0}, msec(50)),
                              classAt("int", {msec(10), msec(13)}, msec(5),
                                      QosClass::Interactive),
                          });
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    EXPECT_EQ(r.preemptions, 1u);
    EXPECT_EQ(r.departures, 3u);

    // First interactive preempts at 10 ms and departs at 15 ms; the
    // second (arrived 13 ms, mid-backoff) is admitted right then —
    // the batch victim only re-queues at 20 ms.
    const ServeSessionResult &i2 = r.byLabel("int#2");
    EXPECT_EQ(i2.admitted, msec(15));
    EXPECT_EQ(i2.departed, msec(20));

    const ServeSessionResult &bat = r.byLabel("bat#0");
    EXPECT_EQ(bat.preemptions, 1);
    EXPECT_EQ(bat.departed, msec(60)); // 10 ms served + 40 ms remainder
    expectExactConservation(r);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

/** 3x-oversubscribed two-class mix for the acceptance comparison. */
std::vector<ServeWorkloadSpec>
overloadSpecs(double rateScale = 1.0)
{
    WorkloadSpec inter = WorkloadSpec::throttle(usec(200));
    inter.label = "inter";
    WorkloadSpec batch = WorkloadSpec::throttle(usec(400));
    batch.label = "batch";
    ServeWorkloadSpec si{inter,
                         ArrivalSpec::poisson(80.0 * rateScale, msec(700)),
                         LifetimeSpec::fixed(msec(40))};
    si.qos = QosClass::Interactive;
    si.queueBudget = msec(25);
    ServeWorkloadSpec sb{batch,
                         ArrivalSpec::poisson(100.0 * rateScale, msec(700)),
                         LifetimeSpec::fixed(msec(80))};
    sb.qos = QosClass::Batch;
    return {si, sb};
}

const GoodputReport &
goodputOf(const ServeRunResult &r, const std::string &label)
{
    for (const auto &g : r.slo.goodputByClass)
        if (g.label == label)
            return g.goodput;
    static const GoodputReport none;
    ADD_FAILURE() << "no goodput for class " << label;
    return none;
}

TEST(ControlPlane, SheddingBeatsQueueEverythingAtOverload)
{
    // The acceptance criterion: at ~3x oversubscription (11+ slot-
    // equivalents of offered load on a 4-slot fleet), the control
    // plane — predictive shedding plus QoS release ordering — yields
    // strictly higher interactive goodput than the queue-everything
    // baseline: predicted-late arrivals fast-fail instead of blowing
    // every admitted session's queue budget behind the batch backlog.
    ExperimentConfig base = controlConfig(2, 2);
    base.measure = sec(1);

    ExperimentConfig shed = base;
    shed.serve.shed.enabled = true;
    shed.serve.qos.enabled = true;

    const ServeRunResult rBase =
        ServeRunner(base).run(overloadSpecs(), /*with_slowdowns=*/false);
    const ServeRunResult rShed =
        ServeRunner(shed).run(overloadSpecs(), /*with_slowdowns=*/false);

    // Same arrival sample under both policies (seeded identically).
    EXPECT_EQ(rBase.arrivals, rShed.arrivals);
    EXPECT_EQ(rBase.shedSessions, 0u);
    EXPECT_GT(rShed.predictiveSheds, 0u);

    const GoodputReport &gBase = goodputOf(rBase, "inter");
    const GoodputReport &gShed = goodputOf(rShed, "inter");
    EXPECT_TRUE(gBase.targeted);
    EXPECT_TRUE(gShed.targeted);
    EXPECT_GT(gBase.eligible, 0u);
    EXPECT_GT(gShed.eligible, 0u);
    EXPECT_GT(gShed.fraction, gBase.fraction)
        << "shed " << gShed.met << "/" << gShed.eligible << " vs base "
        << gBase.met << "/" << gBase.eligible;

    expectExactConservation(rBase);
    expectExactConservation(rShed);
    EXPECT_TRUE(rShed.audit.clean()) << rShed.audit.summary();
    EXPECT_TRUE(rBase.audit.clean()) << rBase.audit.summary();
}

TEST(ControlPlane, ConservationHoldsAcrossRateBudgetAndMixSweep)
{
    // Property sweep: arrival rate x queue budget x class mix, each
    // with shedding off and on. Every combination must satisfy the
    // exact outcome partition, keep the auditor clean, and — at
    // overload — never lose goodput by enabling shedding.
    const double rates[] = {0.3, 1.0};     // x the 3x-overload base
    const Tick budgets[] = {msec(10), msec(50)};
    const double mixes[] = {0.25, 0.75};   // interactive share scale

    for (double rate : rates) {
        for (Tick budget : budgets) {
            for (double mix : mixes) {
                SCOPED_TRACE("rate=" + std::to_string(rate) +
                             " budget=" + std::to_string(budget) +
                             " mix=" + std::to_string(mix));
                std::vector<ServeWorkloadSpec> specs = overloadSpecs(rate);
                specs[0].arrivals =
                    ArrivalSpec::poisson(200.0 * rate * mix, msec(400));
                specs[0].queueBudget = budget;

                ExperimentConfig off = controlConfig(2, 2);
                off.measure = msec(600);
                ExperimentConfig on = off;
                on.serve.shed.enabled = true;
                on.serve.qos.enabled = true;
                on.serve.rateLimit.ratePerSec = 150.0 * rate;
                on.serve.rateLimit.burst = 4.0;

                const ServeRunResult rOff = ServeRunner(off).run(
                    specs, /*with_slowdowns=*/false);
                const ServeRunResult rOn = ServeRunner(on).run(
                    specs, /*with_slowdowns=*/false);

                expectExactConservation(rOff);
                expectExactConservation(rOn);
                EXPECT_TRUE(rOff.audit.clean()) << rOff.audit.summary();
                EXPECT_TRUE(rOn.audit.clean()) << rOn.audit.summary();

                if (rate >= 1.0) {
                    const GoodputReport &gOff = goodputOf(rOff, "inter");
                    const GoodputReport &gOn = goodputOf(rOn, "inter");
                    EXPECT_GE(gOn.fraction, gOff.fraction)
                        << "shedding lost goodput at overload";
                }
            }
        }
    }
}

/** 8-device fleet with the whole control plane on (clock-steered). */
ExperimentConfig
controlConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 8;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8, 1.0, 1.0};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.measure = sec(1);
    // 200/s per tenant: the interactive class (300/s offered) loses a
    // third to the bucket, and what passes still saturates the fleet
    // on its own (~16 slot-equivalents), so equal-rank queueing forms
    // and the shedder fires despite preemption.
    cfg.serve.rateLimit.ratePerSec = 200.0;
    cfg.serve.rateLimit.burst = 3.0;
    cfg.serve.shed.enabled = true;
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(5);
    return cfg;
}

std::vector<ServeWorkloadSpec>
controlSpecs()
{
    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    ServeWorkloadSpec sb{heavy, ArrivalSpec::poisson(150.0, msec(600)),
                         LifetimeSpec::fixed(msec(120))};
    sb.qos = QosClass::Batch;
    ServeWorkloadSpec si{light, ArrivalSpec::poisson(300.0, msec(600)),
                         LifetimeSpec::exponential(msec(80))};
    si.qos = QosClass::Interactive;
    si.queueBudget = msec(10);
    return {sb, si};
}

/**
 * Bit-level fingerprint including every control-plane outcome field —
 * any divergence in throttle/shed/preempt decisions, placement, or
 * usage shows up as a line diff.
 */
std::vector<std::string>
controlFingerprint(const ExperimentConfig &cfg,
                   const std::vector<ServeWorkloadSpec> &specs)
{
    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    std::vector<std::string> fp;
    for (const auto &s : r.sessions) {
        std::string devs;
        for (std::size_t d : s.devices)
            devs += std::to_string(d) + ",";
        fp.push_back(s.label + " arr=" + std::to_string(s.arrived) +
                     " adm=" + std::to_string(s.admitted) +
                     " dep=" + std::to_string(s.departed) +
                     " killed=" + std::to_string(s.killed) +
                     " shed=" + std::to_string(s.shed) +
                     " pshed=" + std::to_string(s.shedPredicted) +
                     " thr=" + std::to_string(s.throttled) +
                     " pre=" + std::to_string(s.preemptions) +
                     " evict=" + std::to_string(s.evictions) +
                     " mig=" + std::to_string(s.migrations) +
                     " busy=" + std::to_string(s.busy) +
                     " reqs=" + std::to_string(s.requests) +
                     " devs=" + devs);
    }
    fp.push_back("arrivals=" + std::to_string(r.arrivals) +
                 " departures=" + std::to_string(r.departures) +
                 " sheds=" + std::to_string(r.shedSessions) +
                 " psheds=" + std::to_string(r.predictiveSheds) +
                 " throttled=" + std::to_string(r.throttledSessions) +
                 " preempts=" + std::to_string(r.preemptions) +
                 " migrations=" + std::to_string(r.migrations));
    fp.push_back("fleetBusy=" + std::to_string(world.fleet.totalBusy()));
    fp.push_back("events=" + std::to_string(world.eventsExecuted()));
    return fp;
}

TEST(ControlPlane, RunsBitIdenticalAcrossRepeats)
{
    // Every control decision (bucket refill, shed prediction, victim
    // pick) is a pure function of the simulation, so a repeat with the
    // full plane enabled reproduces every outcome.
    const ExperimentConfig cfg = controlConfig();
    const std::vector<std::string> base =
        controlFingerprint(cfg, controlSpecs());
    ASSERT_GT(base.size(), 10u);
    EXPECT_EQ(controlFingerprint(cfg, controlSpecs()), base);

    // The scenario exercised every actuator, not just the happy path.
    bool sawThrottle = false, sawShed = false;
    for (const std::string &line : base) {
        if (line.find("thr=1") != std::string::npos)
            sawThrottle = true;
        if (line.find("pshed=1") != std::string::npos)
            sawShed = true;
    }
    EXPECT_TRUE(sawThrottle);
    EXPECT_TRUE(sawShed);
}

/** The exact PR-9 scenario: no QoS metadata, no budgets, no limits. */
std::vector<ServeWorkloadSpec>
legacySpecs()
{
    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    return {
        {heavy, ArrivalSpec::poisson(30.0, msec(600)),
         LifetimeSpec::fixed(msec(120))},
        {light, ArrivalSpec::poisson(50.0, msec(600)),
         LifetimeSpec::exponential(msec(80))},
    };
}

TEST(ControlPlane, DisabledPlaneHasZeroFootprint)
{
    // The regression pin for the pre-control-plane engine: a config
    // with every new feature at its default runs the legacy scenario
    // with zero control-plane outcomes — and configurations that
    // enable a feature without giving it anything to act on must not
    // perturb a single session, placement, or event.
    ExperimentConfig off = controlConfig();
    off.serve.rateLimit = TokenBucketConfig{};
    off.serve.shed = PredictiveShedConfig{};
    off.serve.qos = QosConfig{};

    const std::vector<std::string> base = controlFingerprint(off, legacySpecs());
    ASSERT_GT(base.size(), 10u);
    for (const std::string &line : base) {
        EXPECT_EQ(line.find(" thr=1"), std::string::npos) << line;
        EXPECT_EQ(line.find(" pshed=1"), std::string::npos) << line;
        EXPECT_EQ(line.find(" shed=1"), std::string::npos) << line;
    }

    // Explicitly zeroed knobs == default-constructed structs.
    ExperimentConfig zeroed = controlConfig();
    zeroed.serve.rateLimit.ratePerSec = 0.0;
    zeroed.serve.rateLimit.burst = 1.0;
    zeroed.serve.qos.enabled = false;
    zeroed.serve.qos.preemption = false;
    zeroed.serve.shed.enabled = false;
    EXPECT_EQ(controlFingerprint(zeroed, legacySpecs()), base);

    // An effectively unlimited bucket passes every arrival untouched.
    ExperimentConfig unlimited = off;
    unlimited.serve.rateLimit.ratePerSec = 1e9; // 1-tick period
    unlimited.serve.rateLimit.burst = 1e6;
    EXPECT_EQ(controlFingerprint(unlimited, legacySpecs()), base);

    // QoS over uniform (all-batch) classes: every rank equal, no
    // preemption candidates, release order unchanged.
    ExperimentConfig qosUniform = off;
    qosUniform.serve.qos.enabled = true;
    qosUniform.serve.qos.preemption = true;
    EXPECT_EQ(controlFingerprint(qosUniform, legacySpecs()), base);

    // Shedding armed but no class has a queue budget: the predictor
    // samples the clock yet never sheds, and touches nothing.
    ExperimentConfig shedNoBudget = off;
    shedNoBudget.serve.shed.enabled = true;
    EXPECT_EQ(controlFingerprint(shedNoBudget, legacySpecs()), base);
}

} // namespace
} // namespace neon
