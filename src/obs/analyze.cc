#include "obs/analyze.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "fleet/fleet_manager.hh"
#include "metrics/efficiency.hh"
#include "metrics/slo.hh"
#include "obs/chrome_trace.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace neon
{
namespace obs
{

// ----------------------------------------------------------------------
// PhaseTracker
// ----------------------------------------------------------------------

void
PhaseTracker::charge(std::size_t idx, Tick now)
{
    Live &l = live[idx];
    SessionPhases &s = all[idx];
    const Tick d = now - l.since;
    switch (l.state) {
    case State::Queued:
        s.phases.queue += d;
        break;
    case State::OnDevice:
        s.phases.service += d;
        break;
    case State::Backoff:
        s.phases.stall += d;
        break;
    case State::Done:
        break;
    }
    l.since = now;
}

void
PhaseTracker::onEvent(const SessionEvent &e)
{
    if (e.kind == SessionEvent::Kind::Arrive) {
        if (e.session >= all.size()) {
            all.resize(e.session + 1);
            live.resize(e.session + 1);
        }
        SessionPhases &s = all[e.session];
        s.session = e.session;
        s.cls = e.cls;
        s.arrived = e.when;
        s.ended = e.when;
        s.open = true;
        live[e.session] = {State::Queued, e.when};
        return;
    }
    // Trace replay may lack a session's Arrive (ring wrap); partial
    // lifecycles cannot be attributed exactly, so they are skipped.
    if (e.session >= all.size() || live[e.session].state == State::Done)
        return;

    charge(e.session, e.when);
    SessionPhases &s = all[e.session];
    Live &l = live[e.session];
    switch (e.kind) {
    case SessionEvent::Kind::Admit:
        if (s.admitted < 0)
            s.admitted = e.when;
        l.state = State::OnDevice;
        break;
    case SessionEvent::Kind::Migrate:
        l.state = State::OnDevice;
        break;
    case SessionEvent::Kind::Evict:
        l.state = State::Backoff;
        break;
    case SessionEvent::Kind::RetryEnqueue:
        l.state = State::Queued;
        break;
    case SessionEvent::Kind::Depart:
        s.departed = true;
        s.ended = e.when;
        s.open = false;
        l.state = State::Done;
        break;
    case SessionEvent::Kind::Kill:
        s.killed = true;
        s.ended = e.when;
        s.open = false;
        l.state = State::Done;
        break;
    case SessionEvent::Kind::Shed:
        s.shed = true;
        s.ended = e.when;
        s.open = false;
        l.state = State::Done;
        break;
    case SessionEvent::Kind::Throttle:
        s.throttled = true;
        s.ended = e.when;
        s.open = false;
        l.state = State::Done;
        break;
    case SessionEvent::Kind::Preempt:
        // Displaced incarnation waits out its backoff before the
        // requeue (RetryEnqueue) — same stall phase as a fault
        // eviction, since the session is neither queued nor served.
        l.state = State::Backoff;
        break;
    case SessionEvent::Kind::Arrive:
        break; // handled above
    }
}

void
PhaseTracker::finalize(Tick horizon)
{
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (live[i].state == State::Done)
            continue;
        charge(i, horizon);
        all[i].ended = horizon;
        all[i].open = true;
        live[i].state = State::Done;
    }
}

// ----------------------------------------------------------------------
// Tail-attribution report
// ----------------------------------------------------------------------

namespace
{

TailGroup
makeGroup(const std::string &key,
          const std::vector<const SessionPhases *> &members)
{
    TailGroup g;
    g.key = key;
    g.sessions = members.size();

    std::vector<double> in_system_ms;
    in_system_ms.reserve(members.size());
    for (const SessionPhases *s : members)
        in_system_ms.push_back(toMsec(s->inSystem()));
    const LatencySummary lat = summarizeLatencies(in_system_ms);
    g.meanMs = lat.mean;
    g.p95Ms = lat.p95;
    g.p99Ms = lat.p99;

    const auto shares = [](const std::vector<const SessionPhases *> &ss) {
        PhaseShares out;
        double q = 0, sv = 0, m = 0, st = 0, total = 0;
        for (const SessionPhases *s : ss) {
            q += static_cast<double>(s->phases.queue);
            sv += static_cast<double>(s->phases.service);
            m += static_cast<double>(s->phases.migration);
            st += static_cast<double>(s->phases.stall);
            total += static_cast<double>(s->inSystem());
        }
        if (total > 0.0) {
            out.queue = q / total;
            out.service = sv / total;
            out.migration = m / total;
            out.stall = st / total;
        }
        return out;
    };
    g.meanShare = shares(members);

    std::vector<const SessionPhases *> tail;
    for (const SessionPhases *s : members) {
        if (toMsec(s->inSystem()) >= g.p95Ms)
            tail.push_back(s);
    }
    g.tailShare = shares(tail);

    g.dominantPhase = "service";
    double best = g.tailShare.service;
    if (g.tailShare.queue > best) {
        best = g.tailShare.queue;
        g.dominantPhase = "queue";
    }
    if (g.tailShare.migration > best) {
        best = g.tailShare.migration;
        g.dominantPhase = "migration";
    }
    if (g.tailShare.stall > best) {
        best = g.tailShare.stall;
        g.dominantPhase = "stall";
    }
    return g;
}

std::string
formatShares(const PhaseShares &s)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "q %4.1f%% s %5.1f%% m %4.1f%% st %4.1f%%",
                  100.0 * s.queue, 100.0 * s.service, 100.0 * s.migration,
                  100.0 * s.stall);
    return buf;
}

void
formatGroup(std::ostringstream &os, const TailGroup &g)
{
    char head[160];
    std::snprintf(head, sizeof(head),
                  "  %-24s %6llu sessions  mean %8.2fms  p95 %8.2fms  "
                  "p99 %8.2fms\n",
                  g.key.c_str(),
                  static_cast<unsigned long long>(g.sessions), g.meanMs,
                  g.p95Ms, g.p99Ms);
    os << head;
    os << "    all :  " << formatShares(g.meanShare) << "\n";
    os << "    tail:  " << formatShares(g.tailShare)
       << "  dominant: " << g.dominantPhase << "\n";
}

} // namespace

PhaseReport
buildPhaseReport(
    const std::vector<SessionPhases> &sessions,
    const std::function<std::string(const SessionPhases &)> &tenant_of,
    const std::function<std::string(const SessionPhases &)> &class_of)
{
    PhaseReport r;
    std::vector<const SessionPhases *> tracked;
    std::map<std::string, std::vector<const SessionPhases *>> by_tenant;
    std::map<std::string, std::vector<const SessionPhases *>> by_class;
    for (const SessionPhases &s : sessions) {
        if (s.ended < s.arrived)
            continue; // untracked replay gap
        tracked.push_back(&s);
        by_tenant[tenant_of(s)].push_back(&s);
        by_class[class_of(s)].push_back(&s);
    }
    r.overall = makeGroup("all", tracked);
    for (const auto &kv : by_tenant)
        r.byTenant.push_back(makeGroup(kv.first, kv.second));
    for (const auto &kv : by_class)
        r.byClass.push_back(makeGroup(kv.first, kv.second));
    return r;
}

std::string
formatPhaseReport(const PhaseReport &report)
{
    std::ostringstream os;
    os << "phase attribution (queue / service / migration / stall, "
          "shares of in-system time)\n";
    formatGroup(os, report.overall);
    if (report.byTenant.size() > 1) {
        os << " by tenant:\n";
        for (const TailGroup &g : report.byTenant)
            formatGroup(os, g);
    }
    if (report.byClass.size() > 1) {
        os << " by class:\n";
        for (const TailGroup &g : report.byClass)
            formatGroup(os, g);
    }
    return os.str();
}

// ----------------------------------------------------------------------
// Analyzer
// ----------------------------------------------------------------------

Analyzer::Analyzer(EventQueue &q, FleetManager &f, ServeEngine &e,
                   const AnalyzeConfig &c)
    : eq(q), fleet(f), engine(e), cfg(c)
{
    engine.addSessionListener(
        [this](const SessionEvent &ev) { onEvent(ev); });
}

void
Analyzer::onEvent(const SessionEvent &e)
{
    if (cfg.phases)
        tracker.onEvent(e);

    if (e.session >= admittedAt.size()) {
        admittedAt.resize(e.session + 1, -1);
        arrivedAt.resize(e.session + 1, -1);
    }

    switch (e.kind) {
    case SessionEvent::Kind::Arrive:
        ++accum.arrivals;
        arrivedAt[e.session] = e.when;
        break;
    case SessionEvent::Kind::Admit:
        if (admittedAt[e.session] < 0)
            admittedAt[e.session] = e.when;
        break;
    case SessionEvent::Kind::Depart: {
        ++accum.departures;
        const Tick starget = engine.config().slo.sojournTarget;
        const std::vector<ServeClass> &classes = engine.workloadClasses();
        const Tick own = e.cls < classes.size()
            ? classes[e.cls].queueBudget : 0;
        const Tick qtarget =
            own > 0 ? own : engine.config().slo.queueTarget;
        if (starget > 0 || qtarget > 0) {
            ++accum.goodputEligible;
            const Tick admitted = admittedAt[e.session];
            const Tick arrived = arrivedAt[e.session];
            bool met = admitted >= 0;
            if (met && starget > 0 && e.when - admitted > starget)
                met = false;
            if (met && qtarget > 0 &&
                (arrived < 0 || admitted - arrived > qtarget))
                met = false;
            if (met)
                ++accum.goodputMet;
        }
        break;
    }
    case SessionEvent::Kind::Kill:
        ++accum.kills;
        break;
    case SessionEvent::Kind::Shed:
        ++accum.sheds;
        break;
    case SessionEvent::Kind::Throttle:
        ++accum.throttled;
        break;
    case SessionEvent::Kind::Preempt:
        ++accum.preempts;
        break;
    default:
        break;
    }
}

void
Analyzer::start()
{
    if (cfg.window > 0)
        eq.scheduleIn(cfg.window, [this] { onBoundary(); });
}

void
Analyzer::onBoundary()
{
    if (finalized)
        return;
    closeWindow(windowStart, eq.now());
    windowStart = eq.now();
    eq.scheduleIn(cfg.window, [this] { onBoundary(); });
}

void
Analyzer::closeWindow(Tick ws, Tick we)
{
    WindowStats w = accum;
    accum = WindowStats{};
    w.start = ws;
    w.end = we;

    // Speed-normalized service rates accrued within the window; a
    // whole-run window reduces to exactly the statistic behind
    // ServeRunResult::serviceFairness (same filter, same enumeration
    // order, same arithmetic).
    std::vector<double> rates;
    engine.visitSessions([&](const SessionRecord &s, Tick busy,
                             std::uint64_t) {
        if (s.id >= busyPrev.size())
            busyPrev.resize(s.id + 1, 0);
        const Tick prev = busyPrev[s.id];
        busyPrev[s.id] = busy;
        if (s.admitted < 0 || s.killed)
            return;
        const Tick end = s.departed >= 0 ? s.departed : we;
        const Tick overlap =
            std::min(end, we) - std::max(s.admitted, ws);
        if (overlap <= 0)
            return;
        double speed = 1.0;
        if (!s.devices.empty()) {
            speed =
                fleet.stack(s.devices.back()).device.config().speedFactor;
            if (speed <= 0.0)
                speed = 1.0;
        }
        rates.push_back(static_cast<double>(busy - prev) * speed /
                        static_cast<double>(overlap));
    });
    w.fairness = jainIndex(rates);

    if (devBusyPrev.size() < fleet.deviceCount())
        devBusyPrev.resize(fleet.deviceCount(), 0);
    const std::vector<DeviceLoadView> &loads = fleet.loadViews();
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
        const Tick b = fleet.stack(i).meter.totalBusy();
        w.deviceUtil.push_back(
            we > ws ? static_cast<double>(b - devBusyPrev[i]) /
                    static_cast<double>(we - ws)
                    : 0.0);
        devBusyPrev[i] = b;
        w.occupancy.push_back(loads[i].assignedTasks);
    }

    w.queueDepth = engine.admissionState().pendingCount();
    w.liveSessions = engine.liveSessions();
    w.goodput = w.goodputEligible > 0
        ? static_cast<double>(w.goodputMet) /
            static_cast<double>(w.goodputEligible)
        : 1.0;
    windows.push_back(std::move(w));
}

void
Analyzer::finalize()
{
    if (finalized)
        return;
    if (cfg.phases)
        tracker.finalize(eq.now());
    if (cfg.window > 0 && (eq.now() > windowStart || windows.empty()))
        closeWindow(windowStart, eq.now());
    finalized = true;
}

const std::vector<SessionPhases> &
Analyzer::sessionPhases() const
{
    return tracker.sessions();
}

PhaseReport
Analyzer::phaseReport() const
{
    const std::vector<ServeClass> &classes = engine.workloadClasses();
    const auto class_of = [&classes](const SessionPhases &s) {
        return s.cls < classes.size() ? classes[s.cls].label
                                      : "class" + std::to_string(s.cls);
    };
    const auto tenant_of = [&classes, &class_of](const SessionPhases &s) {
        if (s.cls < classes.size() && !classes[s.cls].tenant.empty())
            return classes[s.cls].tenant;
        return class_of(s);
    };
    return buildPhaseReport(tracker.sessions(), tenant_of, class_of);
}

namespace
{

/** Deterministic double rendering for series outputs. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

std::string
Analyzer::timelineCsv() const
{
    std::ostringstream os;
    os << "start_ms,end_ms,arrivals,departures,kills,sheds,throttled,"
          "preempts,queue_depth,"
          "live_sessions,fairness,goodput,goodput_eligible,goodput_met";
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i)
        os << ",util_dev" << i;
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i)
        os << ",occ_dev" << i;
    os << "\n";
    for (const WindowStats &w : windows) {
        os << fmtDouble(toMsec(w.start)) << "," << fmtDouble(toMsec(w.end))
           << "," << w.arrivals << "," << w.departures << "," << w.kills
           << "," << w.sheds << "," << w.throttled << "," << w.preempts
           << "," << w.queueDepth << "," << w.liveSessions
           << "," << fmtDouble(w.fairness) << "," << fmtDouble(w.goodput)
           << "," << w.goodputEligible << "," << w.goodputMet;
        for (double u : w.deviceUtil)
            os << "," << fmtDouble(u);
        for (std::size_t o : w.occupancy)
            os << "," << o;
        os << "\n";
    }
    return os.str();
}

void
Analyzer::writeOutputs() const
{
    if (!cfg.timelineCsvPath.empty()) {
        std::ofstream os = openExport(cfg.timelineCsvPath, "timeline");
        os << timelineCsv();
        closeExport(os, cfg.timelineCsvPath, "timeline");
    }
    if (!cfg.timelineJsonPath.empty()) {
        std::ofstream os = openExport(cfg.timelineJsonPath, "timeline");
        os << "[\n";
        for (std::size_t i = 0; i < windows.size(); ++i) {
            const WindowStats &w = windows[i];
            os << "  {\"start_ms\": " << fmtDouble(toMsec(w.start))
               << ", \"end_ms\": " << fmtDouble(toMsec(w.end))
               << ", \"arrivals\": " << w.arrivals
               << ", \"departures\": " << w.departures
               << ", \"kills\": " << w.kills << ", \"sheds\": " << w.sheds
               << ", \"throttled\": " << w.throttled
               << ", \"preempts\": " << w.preempts
               << ", \"queue_depth\": " << w.queueDepth
               << ", \"live_sessions\": " << w.liveSessions
               << ", \"fairness\": " << fmtDouble(w.fairness)
               << ", \"goodput\": " << fmtDouble(w.goodput)
               << ", \"util\": [";
            for (std::size_t d = 0; d < w.deviceUtil.size(); ++d)
                os << (d ? ", " : "") << fmtDouble(w.deviceUtil[d]);
            os << "], \"occupancy\": [";
            for (std::size_t d = 0; d < w.occupancy.size(); ++d)
                os << (d ? ", " : "") << w.occupancy[d];
            os << "]}" << (i + 1 < windows.size() ? "," : "") << "\n";
        }
        os << "]\n";
        closeExport(os, cfg.timelineJsonPath, "timeline");
    }
}

std::string
Analyzer::summary() const
{
    std::ostringstream os;
    bool any = false;
    if (cfg.phases) {
        os << tracker.sessions().size() << " sessions phase-attributed";
        any = true;
    }
    if (cfg.window > 0) {
        if (any)
            os << "; ";
        os << windows.size() << " timeline windows of "
           << toMsec(cfg.window) << "ms";
        any = true;
    }
    return os.str();
}

// ----------------------------------------------------------------------
// Trace replay
// ----------------------------------------------------------------------

bool
sessionEventKindOf(const std::string &name, TraceKind kind,
                   SessionEvent::Kind &out)
{
    if (kind == TraceKind::AsyncBegin && name == "session") {
        out = SessionEvent::Kind::Arrive;
        return true;
    }
    if (kind != TraceKind::Instant)
        return false;
    if (name == "serve.admit" || name == "serve.failover" ||
        name == "serve.preempt_resume") {
        out = SessionEvent::Kind::Admit;
        return true;
    }
    if (name == "serve.migrate") {
        out = SessionEvent::Kind::Migrate;
        return true;
    }
    if (name == "serve.evict") {
        out = SessionEvent::Kind::Evict;
        return true;
    }
    if (name == "serve.retry_arrive") {
        out = SessionEvent::Kind::RetryEnqueue;
        return true;
    }
    if (name == "serve.depart") {
        out = SessionEvent::Kind::Depart;
        return true;
    }
    if (name == "serve.session_killed") {
        out = SessionEvent::Kind::Kill;
        return true;
    }
    if (name == "serve.shed" || name == "serve.shed_predicted") {
        out = SessionEvent::Kind::Shed;
        return true;
    }
    if (name == "serve.throttle") {
        out = SessionEvent::Kind::Throttle;
        return true;
    }
    if (name == "serve.preempt") {
        out = SessionEvent::Kind::Preempt;
        return true;
    }
    if (name == "serve.preempt_requeue") {
        out = SessionEvent::Kind::RetryEnqueue;
        return true;
    }
    return false;
}

std::vector<SessionEvent>
sessionEventsFromTrace(const std::vector<TraceRecord> &records)
{
    std::vector<SessionEvent> out;
    for (const TraceRecord &r : records) {
        if (r.session < 0)
            continue;
        SessionEvent::Kind kind;
        if (!sessionEventKindOf(traceNameOf(r.name), r.kind, kind))
            continue;
        SessionEvent e;
        e.kind = kind;
        e.when = r.when;
        e.session = static_cast<std::uint64_t>(r.session);
        e.device = r.device;
        if (kind == SessionEvent::Kind::Arrive)
            e.cls = static_cast<std::size_t>(r.arg0);
        out.push_back(e);
    }
    return out;
}

} // namespace obs
} // namespace neon
