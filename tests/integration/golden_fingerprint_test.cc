/**
 * @file
 * Absolute golden fingerprints of three representative runs.
 *
 * The other determinism pins are relative (repeat vs repeat, all-off
 * vs configured, traced vs untraced), so a change that reorders
 * same-tick events on every path at once would still pass them. These
 * pin the exact digests: every per-session / per-task record, the
 * whole-run counters and the executed event count. A performance
 * change to the event core, the device meter or the kernel must leave
 * all three unchanged. A deliberate behaviour change updates the
 * constants and says why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

/** FNV-1a over canonical text, so digests do not depend on layout. */
class Fingerprint
{
  public:
    Fingerprint &
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // field separator
        h *= 0x100000001b3ULL;
        return *this;
    }

    Fingerprint &add(std::int64_t v) { return add(std::to_string(v)); }
    Fingerprint &add(std::uint64_t v) { return add(std::to_string(v)); }
    Fingerprint &add(int v) { return add(std::to_string(v)); }
    Fingerprint &add(bool v) { return add(std::string(v ? "1" : "0")); }

    /** Doubles by bit pattern: "bit-identical" means exactly that. */
    Fingerprint &
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::string
serveDigest(const ExperimentConfig &cfg,
            const std::vector<ServeWorkloadSpec> &specs)
{
    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
    EXPECT_GT(r.audit.checks, 0u);

    Fingerprint fp;
    for (const ServeSessionResult &s : r.sessions) {
        fp.add(s.label).add(s.tenant).add(std::uint64_t(s.cls));
        fp.add(s.arrived).add(s.admitted).add(s.departed);
        fp.add(s.killed).add(s.shed).add(s.shedPredicted).add(s.throttled);
        fp.add(s.evictions).add(s.failovers).add(s.preemptions);
        fp.add(s.migrations).add(s.busy).add(s.requests);
        fp.add(s.meanRoundUs).add(s.rounds);
        for (std::size_t d : s.devices)
            fp.add(std::uint64_t(d));
    }
    fp.add(r.arrivals).add(r.departures).add(r.kills).add(r.migrations);
    fp.add(r.evictions).add(r.retryAttempts).add(r.failovers);
    fp.add(r.shedSessions).add(r.throttledSessions).add(r.preemptions);
    fp.add(world.fleet.totalBusy());
    fp.add(world.eventsExecuted());
    return fp.hex();
}

TEST(GoldenFingerprint, DfqServingWithMigrationClockAndAudit)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 6;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.serve.slo.queueTarget = msec(20);
    cfg.measure = msec(800);
    cfg.seed = 11;

    WorkloadSpec heavy = WorkloadSpec::throttle(usec(430));
    heavy.label = "heavy";
    WorkloadSpec dct = WorkloadSpec::app("DCT");
    const std::vector<ServeWorkloadSpec> specs = {
        {heavy, ArrivalSpec::poisson(40.0, msec(600)),
         LifetimeSpec::fixed(msec(120))},
        {dct, ArrivalSpec::poisson(25.0, msec(600)),
         LifetimeSpec::exponential(msec(100))},
    };
    EXPECT_EQ(serveDigest(cfg, specs), "8bf7301bfe341a15");
}

TEST(GoldenFingerprint, ControlPlaneWithFaults)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.5, 0.5};
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.retry.maxRetries = 5;
    cfg.serve.slo.queueTarget = msec(100);
    cfg.serve.rateLimit.ratePerSec = 120.0;
    cfg.serve.rateLimit.burst = 6.0;
    cfg.serve.shed.enabled = true;
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(5);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(30);
    cfg.fault.watchdog.runawayTimeout = msec(120);
    cfg.fault.plan.enabled = true;
    cfg.fault.plan.horizon = msec(700);
    cfg.fault.plan.deathRatePerSec = 0.5;
    cfg.fault.plan.meanRepair = msec(100);
    cfg.fault.plan.stallRatePerSec = 4.0;
    cfg.fault.plan.meanStall = msec(10);
    cfg.fault.plan.hangRatePerSec = 2.0;
    cfg.measure = msec(900);
    cfg.seed = 5;

    WorkloadSpec inter = WorkloadSpec::throttle(usec(100));
    inter.label = "interactive";
    WorkloadSpec batch = WorkloadSpec::throttle(usec(430));
    batch.label = "batch";
    ServeWorkloadSpec i{inter, ArrivalSpec::poisson(150.0, msec(700)),
                        LifetimeSpec::fixed(msec(60))};
    i.tenant = "a";
    i.qos = QosClass::Interactive;
    i.queueBudget = msec(20);
    ServeWorkloadSpec b{batch, ArrivalSpec::poisson(75.0, msec(700)),
                        LifetimeSpec::exponential(msec(150))};
    b.tenant = "b";
    EXPECT_EQ(serveDigest(cfg, {i, b}), "792d3486d919f278");
}

/** One Fig. 6/7 pair (DCT against a 19 us Throttle) per paper policy. */
std::string
pairDigest(SchedKind kind)
{
    ExperimentConfig cfg;
    cfg.sched = kind;
    cfg.measure = msec(600);
    cfg.seed = 3;

    World world(cfg);
    world.spawn(WorkloadSpec::app("DCT"));
    world.spawn(WorkloadSpec::throttle(usec(19)));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    const RunResult r = world.results();
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();

    Fingerprint fp;
    for (const TaskResult &t : r.tasks) {
        fp.add(t.label).add(t.pid).add(t.meanRoundUs).add(t.rounds);
        fp.add(t.gpuBusy).add(t.requests).add(t.killed);
    }
    fp.add(r.elapsed).add(r.deviceBusy).add(r.switchOverhead).add(r.kills);
    fp.add(world.eq.executed());
    return fp.hex();
}

TEST(GoldenFingerprint, PaperPairUnderEachPaperScheduler)
{
    const std::vector<std::string> expected = {
        "fb218afb5368ebab", // direct
        "fcc029186e7fae8b", // timeslice
        "18020afc9fb3c54b", // disengaged timeslice
        "e5fdb8248d13f785", // disengaged fair queueing
    };
    ASSERT_EQ(paperSchedulers.size(), expected.size());
    for (std::size_t i = 0; i < paperSchedulers.size(); ++i) {
        EXPECT_EQ(pairDigest(paperSchedulers[i]), expected[i])
            << schedKindName(paperSchedulers[i]);
    }
}

} // namespace
} // namespace neon
