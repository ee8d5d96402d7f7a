#include "obs/chrome_trace.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <utility>

#include "sim/logging.hh"

namespace neon
{
namespace obs
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

constexpr std::uint32_t noLane = ~std::uint32_t(0);

/**
 * Incremental lowering of records in capture order. Lanes live in a
 * dense (pid, name id) table; each lane carries the categories of its
 * open spans (all of one name, since a span lane is per name), so
 * orphan Ends can be dropped and dangling Begins closed.
 */
class ChromeBuilder
{
  public:
    /**
     * Sized for @p records records: at most one event each, plus at
     * most one dangling close per Begin, so the event vector never
     * regrows (a regrow copies every event). Pages it never reaches
     * are never touched: the bound costs address space, not resident
     * memory. The lane labels
     * are interned before the name table is taken, so the table
     * covers them.
     */
    explicit ChromeBuilder(std::size_t records)
        : marks(internTraceName("marks")),
          sessions(internTraceName("sessions")), names(traceNameTable())
    {
        tl.events.reserve(2 * records);
    }

    void
    add(const TraceRecord &r)
    {
        const std::uint32_t pid =
            r.device >= 0 ? static_cast<std::uint32_t>(r.device) + 1 : 0;
        if (pid + 1 > tl.processCount)
            tl.processCount = pid + 1;
        if (r.name >= names.size())
            panic("unknown interned trace name id ", r.name);
        const double ts = toUsec(r.when);
        if (ts > lastTs)
            lastTs = ts;

        ChromeEvent ev;
        ev.ts = ts;
        ev.pid = pid;
        ev.name = names[r.name];
        ev.cat = traceCategoryName(r.category());
        ev.argPid = r.pid;
        ev.argA = r.arg0;
        ev.argB = r.arg1;

        switch (r.kind) {
          case TraceKind::Instant:
            ev.ph = 'i';
            ev.tid = tl.lanes[lane(pid, marks)].tid;
            ev.hasArgs = true;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::Begin:
          case TraceKind::End: {
            // One lane per span name keeps the B/E stack discipline of
            // a Chrome "thread" even when differently named spans
            // overlap (execute vs. DMA engines, free-run vs. engage).
            const std::uint32_t l = lane(pid, r.name);
            ev.tid = tl.lanes[l].tid;
            auto &stack = open[l];
            if (r.kind == TraceKind::Begin) {
                ev.ph = 'B';
                ev.hasArgs = true;
                stack.push_back(ev.cat);
            } else {
                if (stack.empty())
                    break; // orphan End: its Begin fell off the ring
                stack.pop_back();
                ev.ph = 'E';
            }
            tl.events.push_back(std::move(ev));
            break;
          }
          case TraceKind::AsyncBegin:
          case TraceKind::AsyncEnd:
            // Sessions live on the global track and overlap freely;
            // the session id keys begin/end pairing.
            ev.ph = r.kind == TraceKind::AsyncBegin ? 'b' : 'e';
            ev.pid = 0;
            ev.tid = tl.lanes[lane(0, sessions)].tid;
            ev.id = r.session;
            ev.hasArgs = r.kind == TraceKind::AsyncBegin;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::FlowStart:
          case TraceKind::FlowStep:
          case TraceKind::FlowEnd:
            ev.ph = r.kind == TraceKind::FlowStart  ? 's'
                    : r.kind == TraceKind::FlowStep ? 't'
                                                    : 'f';
            ev.tid = tl.lanes[lane(pid, marks)].tid;
            ev.id = r.session;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::CounterVal:
            ev.ph = 'C';
            ev.pid = 0;
            ev.tid = 0;
            ev.hasValue = true;
            ev.value = std::bit_cast<double>(r.arg0);
            tl.events.push_back(std::move(ev));
            break;
        }
    }

    /** Close spans still open at the last seen timestamp so viewers
     *  don't stretch them to infinity, then hand the timeline over. */
    ChromeTimeline
    finish()
    {
        std::vector<std::uint32_t> order(tl.lanes.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return std::pair(tl.lanes[a].pid, tl.lanes[a].tid) <
                             std::pair(tl.lanes[b].pid, tl.lanes[b].tid);
                  });
        for (const std::uint32_t l : order) {
            auto &stack = open[l];
            while (!stack.empty()) {
                ChromeEvent ev;
                ev.ph = 'E';
                ev.ts = lastTs;
                ev.pid = tl.lanes[l].pid;
                ev.tid = tl.lanes[l].tid;
                ev.name = tl.lanes[l].name;
                ev.cat = stack.back();
                stack.pop_back();
                tl.events.push_back(std::move(ev));
            }
        }
        return std::move(tl);
    }

  private:
    /** Index into tl.lanes of (pid, name); tids count up per pid. */
    std::uint32_t
    lane(std::uint32_t pid, std::uint16_t name)
    {
        if (pid >= nextTid.size()) {
            nextTid.resize(pid + 1, 0);
            laneOf.resize((pid + 1) * names.size(), noLane);
        }
        std::uint32_t &l = laneOf[pid * names.size() + name];
        if (l == noLane) {
            l = static_cast<std::uint32_t>(tl.lanes.size());
            tl.lanes.push_back({pid, nextTid[pid]++, names[name]});
            open.emplace_back();
        }
        return l;
    }

    std::uint16_t marks;
    std::uint16_t sessions;
    std::vector<std::string_view> names; ///< by interned id
    ChromeTimeline tl;
    double lastTs = 0.0;
    std::vector<std::uint32_t> nextTid;  ///< per pid
    std::vector<std::uint32_t> laneOf;   ///< [pid * names + name id]
    std::vector<std::vector<std::string_view>> open; ///< per lane: cats
};

} // namespace

ChromeTimeline
buildChromeEvents(const std::vector<TraceRecord> &records)
{
    ChromeBuilder b(records.size());
    for (const TraceRecord &r : records)
        b.add(r);
    return b.finish();
}

namespace
{

void
writeEvent(TextWriter &w, const ChromeEvent &e)
{
    w.put("{\"name\":\"");
    w.putJsonString(e.name);
    w.put("\",\"cat\":\"");
    w.putJsonString(e.cat);
    w.put("\",\"ph\":\"");
    w.put(e.ph);
    w.put("\",\"ts\":");
    w.put(e.ts);
    w.put(",\"pid\":");
    w.put(e.pid);
    w.put(",\"tid\":");
    w.put(e.tid);
    if (e.ph == 'i')
        w.put(",\"s\":\"t\"");
    if (e.id >= 0) {
        w.put(",\"id\":");
        w.put(e.id);
    }
    if (e.hasValue) {
        w.put(",\"args\":{\"value\":");
        w.put(e.value);
        w.put('}');
    } else if (e.hasArgs) {
        w.put(",\"args\":{");
        if (e.argPid >= 0) {
            w.put("\"task\":");
            w.put(e.argPid);
            w.put(',');
        }
        w.put("\"a0\":");
        w.put(e.argA);
        w.put(",\"a1\":");
        w.put(e.argB);
        w.put('}');
    }
    w.put('}');
}

void
writeMeta(TextWriter &w, std::string_view what, std::uint32_t pid,
          std::uint32_t tid, bool withTid, std::string_view name)
{
    w.put("{\"name\":\"");
    w.put(what);
    w.put("\",\"ph\":\"M\",\"pid\":");
    w.put(pid);
    if (withTid) {
        w.put(",\"tid\":");
        w.put(tid);
    }
    w.put(",\"args\":{\"name\":\"");
    w.putJsonString(name);
    w.put("\"}}");
}

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTimeline &tl)
{
    // Timestamps print at 15 significant digits: 6 would round the
    // microsecond timestamps of multi-second runs onto each other and
    // break per-track monotonicity in the viewer.
    TextWriter w(os);
    w.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (std::uint32_t pid = 0; pid < tl.processCount; ++pid) {
        if (!first)
            w.put(",\n");
        first = false;
        const std::string pname =
            pid == 0 ? std::string("fleet")
                     : "device" + std::to_string(pid - 1);
        writeMeta(w, "process_name", pid, 0, false, pname);
    }
    for (const auto &lane : tl.lanes) {
        w.put(",\n");
        writeMeta(w, "thread_name", lane.pid, lane.tid, true, lane.name);
    }
    for (const auto &e : tl.events) {
        if (!first)
            w.put(",\n");
        first = false;
        writeEvent(w, e);
    }
    w.put("\n]}\n");
    w.flush();
}

void
writeChromeTrace(std::ostream &os, const TraceRecorder &rec)
{
    ChromeBuilder b(rec.size());
    rec.forEachRecord([&b](const TraceRecord &r) { b.add(r); });
    writeChromeTrace(os, b.finish());
}

} // namespace obs
} // namespace neon
