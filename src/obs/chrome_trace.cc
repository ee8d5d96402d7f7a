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

std::ofstream
openExport(const std::string &path, const char *what)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open ", what, " output '", path, "'");
    return os;
}

void
closeExport(std::ofstream &os, const std::string &path, const char *what)
{
    os.close();
    if (!os)
        fatal("cannot write ", what, " output '", path, "'");
}

namespace
{

constexpr std::uint32_t noLane = ~std::uint32_t(0);

/**
 * The lowering of records, in capture order, into Chrome events. Lanes
 * live in a dense (pid, name id) table; each lane carries the
 * categories of its open spans (all of one name, since a span lane is
 * per name), so orphan Ends can be dropped and dangling Begins closed.
 *
 * place() is the record -> lane mapping: it numbers lanes in discovery
 * order and tracks the process count and the last tick. lower() places
 * the record (a lookup once placed) and hands its event, if any, to a
 * sink. Placing is idempotent, so a caller may place every record
 * first to learn the lanes before lowering any.
 */
class ChromeLowering
{
  public:
    /** The lane labels are interned before the name table is taken,
     *  so the table covers them. */
    ChromeLowering()
        : marks(internTraceName("marks")),
          sessions(internTraceName("sessions")), names(traceNameTable())
    {
    }

    /** The lane of @p r (noLane for counters), registered on first sight. */
    std::uint32_t
    place(const TraceRecord &r)
    {
        const std::uint32_t pid = pidOf(r);
        if (pid + 1 > procs)
            procs = pid + 1;
        if (r.name >= names.size())
            panic("unknown interned trace name id ", r.name);
        if (r.when > lastTick)
            lastTick = r.when;
        switch (r.kind) {
          case TraceKind::Instant:
          case TraceKind::FlowStart:
          case TraceKind::FlowStep:
          case TraceKind::FlowEnd:
            return lane(pid, marks);
          case TraceKind::Begin:
          case TraceKind::End:
            // One lane per span name keeps the B/E stack discipline of
            // a Chrome "thread" even when differently named spans
            // overlap (execute vs. DMA engines, free-run vs. engage).
            return lane(pid, r.name);
          case TraceKind::AsyncBegin:
          case TraceKind::AsyncEnd:
            // Sessions live on the global track and overlap freely;
            // the session id keys begin/end pairing.
            return lane(0, sessions);
          case TraceKind::CounterVal:
            break;
        }
        return noLane;
    }

    /** Lower @p r and pass its event, if it has one, to @p emit. */
    template <typename Sink>
    void
    lower(const TraceRecord &r, Sink &&emit)
    {
        const std::uint32_t l = place(r);
        ChromeEvent ev;
        ev.ts = r.when;
        ev.pid = pidOf(r);
        ev.name = names[r.name];
        ev.cat = traceCategoryName(r.category());
        ev.argPid = r.pid;
        ev.argA = r.arg0;
        ev.argB = r.arg1;
        if (l != noLane)
            ev.tid = laneList[l].tid;

        switch (r.kind) {
          case TraceKind::Instant:
            ev.ph = 'i';
            ev.hasArgs = true;
            break;
          case TraceKind::Begin:
            ev.ph = 'B';
            ev.hasArgs = true;
            open[l].push_back(ev.cat);
            break;
          case TraceKind::End:
            if (open[l].empty())
                return; // orphan End: its Begin fell off the ring
            open[l].pop_back();
            ev.ph = 'E';
            break;
          case TraceKind::AsyncBegin:
          case TraceKind::AsyncEnd:
            ev.ph = r.kind == TraceKind::AsyncBegin ? 'b' : 'e';
            ev.pid = 0;
            ev.id = r.session;
            ev.hasArgs = r.kind == TraceKind::AsyncBegin;
            break;
          case TraceKind::FlowStart:
          case TraceKind::FlowStep:
          case TraceKind::FlowEnd:
            ev.ph = r.kind == TraceKind::FlowStart  ? 's'
                    : r.kind == TraceKind::FlowStep ? 't'
                                                    : 'f';
            ev.id = r.session;
            break;
          case TraceKind::CounterVal:
            ev.ph = 'C';
            ev.pid = 0;
            ev.hasValue = true;
            ev.value = std::bit_cast<double>(r.arg0);
            break;
        }
        emit(ev);
    }

    /** Close spans still open at the last seen tick, in (pid, tid)
     *  order, so viewers don't stretch them to infinity. */
    template <typename Sink>
    void
    closeDangling(Sink &&emit)
    {
        std::vector<std::uint32_t> order(laneList.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return std::pair(laneList[a].pid, laneList[a].tid) <
                             std::pair(laneList[b].pid, laneList[b].tid);
                  });
        for (const std::uint32_t l : order) {
            auto &stack = open[l];
            while (!stack.empty()) {
                ChromeEvent ev;
                ev.ph = 'E';
                ev.ts = lastTick;
                ev.pid = laneList[l].pid;
                ev.tid = laneList[l].tid;
                ev.name = laneList[l].name;
                ev.cat = stack.back();
                stack.pop_back();
                emit(ev);
            }
        }
    }

    const std::vector<ChromeLane> &lanes() const { return laneList; }
    std::uint32_t processCount() const { return procs; }

  private:
    static std::uint32_t
    pidOf(const TraceRecord &r)
    {
        return r.device >= 0 ? static_cast<std::uint32_t>(r.device) + 1 : 0;
    }

    /** Index into laneList of (pid, name); tids count up per pid. */
    std::uint32_t
    lane(std::uint32_t pid, std::uint16_t name)
    {
        if (pid >= nextTid.size()) {
            nextTid.resize(pid + 1, 0);
            laneOf.resize((pid + 1) * names.size(), noLane);
        }
        std::uint32_t &l = laneOf[pid * names.size() + name];
        if (l == noLane) {
            l = static_cast<std::uint32_t>(laneList.size());
            laneList.push_back({pid, nextTid[pid]++, names[name]});
            open.emplace_back();
        }
        return l;
    }

    std::uint16_t marks;
    std::uint16_t sessions;
    std::vector<std::string_view> names; ///< by interned id
    std::vector<ChromeLane> laneList;
    std::uint32_t procs = 1;             ///< pids 0..procs-1 in use
    Tick lastTick = 0;
    std::vector<std::uint32_t> nextTid;  ///< per pid
    std::vector<std::uint32_t> laneOf;   ///< [pid * names + name id]
    std::vector<std::vector<std::string_view>> open; ///< per lane: cats
};

} // namespace

ChromeTimeline
buildChromeEvents(const std::vector<TraceRecord> &records)
{
    ChromeLowering low;
    ChromeTimeline tl;
    // At most one event per record plus one close per Begin: the list
    // never regrows (a regrow copies every event).
    tl.events.reserve(2 * records.size());
    const auto keep = [&tl](const ChromeEvent &e) { tl.events.push_back(e); };
    for (const TraceRecord &r : records)
        low.lower(r, keep);
    low.closeDangling(keep);
    tl.processCount = low.processCount();
    tl.lanes = low.lanes();
    return tl;
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
    // All three fractional digits of a microsecond timestamp print:
    // rounding them would merge the timestamps of multi-second runs
    // and break per-track monotonicity in the viewer.
    w.put("\",\"ts\":");
    w.putUsec(e.ts);
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

/**
 * The JSON around the events: the header names every process and lane
 * (so they must all be known first), then each event follows ",\n"
 * (there is always at least one process entry before it).
 */
class ChromeJson
{
  public:
    ChromeJson(std::ostream &os, std::uint32_t processCount,
               const std::vector<ChromeLane> &lanes)
        : w(os)
    {
        w.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (std::uint32_t pid = 0; pid < processCount; ++pid) {
            if (pid)
                w.put(",\n");
            const std::string pname =
                pid == 0 ? std::string("fleet")
                         : "device" + std::to_string(pid - 1);
            writeMeta(w, "process_name", pid, 0, false, pname);
        }
        for (const auto &lane : lanes) {
            w.put(",\n");
            writeMeta(w, "thread_name", lane.pid, lane.tid, true, lane.name);
        }
    }

    void
    operator()(const ChromeEvent &e)
    {
        w.put(",\n");
        writeEvent(w, e);
    }

    void
    finish()
    {
        w.put("\n]}\n");
        w.flush();
    }

  private:
    TextWriter w;
};

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTimeline &tl)
{
    ChromeJson out(os, tl.processCount, tl.lanes);
    for (const auto &e : tl.events)
        out(e);
    out.finish();
}

void
writeChromeTrace(std::ostream &os, const TraceRecorder &rec)
{
    ChromeLowering low;
    rec.forEachRecord([&low](const TraceRecord &r) { low.place(r); });
    ChromeJson out(os, low.processCount(), low.lanes());
    rec.forEachRecord([&](const TraceRecord &r) { low.lower(r, out); });
    low.closeDangling(out);
    out.finish();
}

} // namespace obs
} // namespace neon
