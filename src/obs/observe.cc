#include "obs/observe.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "fleet/fleet_manager.hh"
#include "obs/chrome_trace.hh"
#include "sched/vtime_tap.hh"
#include "serve/serve_engine.hh"
#include "sim/logging.hh"

namespace neon
{
namespace obs
{

Observer::Observer(EventQueue &q, const ObserveConfig &c)
    : eq(q), cfg(c), ring(c.bufferCapacity)
{
    setTraceSink(&ring, cfg.categories, &eq);
}

Observer::~Observer()
{
    // Another Observer may have taken over the sink (nested worlds in
    // slowdown-baseline runs); only deactivate if it is still ours.
    if (traceSink() == &ring)
        setTraceSink(nullptr, 0);
}

void
Observer::attachFleet(FleetManager &fleet)
{
    registry.probe("eq.executed", [this] {
        return static_cast<double>(eq.executed());
    });
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
        const std::string dev = "dev" + std::to_string(i);
        registry.probe(dev + ".queue_depth", [&fleet, i] {
            return static_cast<double>(fleet.loadViews()[i].assignedTasks);
        });
        if (dynamic_cast<VirtualTimeTap *>(fleet.stack(i).sched.get())) {
            registry.probe(dev + ".norm_vtime_ms", [&fleet, i] {
                const auto *tap = dynamic_cast<const VirtualTimeTap *>(
                    fleet.stack(i).sched.get());
                const double speed =
                    fleet.stack(i).device.config().speedFactor;
                return toMsec(tap->tapSystemVtime()) * speed;
            });
        }
    }
    registry.probe("fleet.vtime_lag_ms", [&fleet] {
        double lo = 0.0, hi = 0.0;
        bool any = false;
        for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
            const auto *tap = dynamic_cast<const VirtualTimeTap *>(
                fleet.stack(i).sched.get());
            if (!tap)
                continue;
            const double norm = toMsec(tap->tapSystemVtime()) *
                                fleet.stack(i).device.config().speedFactor;
            if (!any) {
                lo = hi = norm;
                any = true;
            } else {
                lo = std::min(lo, norm);
                hi = std::max(hi, norm);
            }
        }
        return any ? hi - lo : 0.0;
    });
}

void
Observer::attachServe(ServeEngine &engine)
{
    registry.probe("serve.queue_len", [&engine] {
        return static_cast<double>(engine.admissionState().pendingCount());
    });
    registry.probe("serve.live_sessions", [&engine] {
        return static_cast<double>(engine.liveSessions());
    });
}

void
Observer::start()
{
    if (cfg.samplePeriod > 0)
        registry.startSampling(eq, cfg.samplePeriod);
}

std::vector<TraceRecord>
Observer::mergedRecords() const
{
    return ring.snapshot();
}

std::uint64_t
Observer::droppedRecords() const
{
    return ring.dropped();
}

namespace
{

/** One record as a JSON object (bench_trace_analyze input line). */
void
printRecordJson(TextWriter &w, const std::vector<std::string_view> &names,
                const TraceRecord &r)
{
    if (r.name >= names.size())
        panic("unknown interned trace name id ", r.name);
    w.put("{\"when\": ");
    w.put(r.when);
    w.put(", \"name\": \"");
    w.putJsonString(names[r.name]);
    w.put("\", \"cat\": \"");
    w.put(traceCategoryName(r.category()));
    w.put("\", \"kind\": ");
    w.put(static_cast<int>(r.kind));
    w.put(", \"device\": ");
    w.put(r.device);
    w.put(", \"pid\": ");
    w.put(r.pid);
    w.put(", \"session\": ");
    w.put(r.session);
    w.put(", \"arg0\": ");
    w.put(r.arg0);
    w.put(", \"arg1\": ");
    w.put(r.arg1);
    w.put("}\n");
}

} // namespace

void
Observer::writeOutputs()
{
    if (!cfg.tracePath.empty()) {
        std::ofstream os = openExport(cfg.tracePath, "trace");
        writeChromeTrace(os, ring);
        closeExport(os, cfg.tracePath, "trace");
    }
    if (!cfg.countersCsvPath.empty()) {
        std::ofstream os = openExport(cfg.countersCsvPath, "counters");
        registry.printCsv(os);
        closeExport(os, cfg.countersCsvPath, "counters");
    }
    if (!cfg.recordsJsonlPath.empty()) {
        std::ofstream os = openExport(cfg.recordsJsonlPath, "records");
        const std::vector<std::string_view> names = traceNameTable();
        TextWriter w(os);
        ring.forEachRecord([&](const TraceRecord &r) {
            printRecordJson(w, names, r);
        });
        w.flush();
        closeExport(os, cfg.recordsJsonlPath, "records");
    }
}

std::string
Observer::summary() const
{
    std::ostringstream os;
    os << ring.written() << " trace records captured, " << ring.size()
       << " retained, " << ring.dropped() << " dropped";
    if (!registry.series().empty()) {
        std::size_t samples = 0;
        for (const auto &s : registry.series())
            samples = std::max(samples, s.samples.size());
        os << "; " << registry.series().size() << " metrics x " << samples
           << " samples";
    }
    return os.str();
}

} // namespace obs
} // namespace neon
