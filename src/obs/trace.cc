#include "obs/trace.hh"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace neon
{
namespace obs
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::SimCore: return "simcore";
      case TraceCategory::Sched: return "sched";
      case TraceCategory::Kernel: return "kernel";
      case TraceCategory::Device: return "device";
      case TraceCategory::Fleet: return "fleet";
      case TraceCategory::Serve: return "serve";
      case TraceCategory::Counter: return "counter";
      case TraceCategory::Fault: return "fault";
    }
    return "?";
}

std::uint32_t
parseTraceCategories(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= allTraceCategories;
            continue;
        }
        if (tok == "default") {
            mask |= defaultTraceCategories;
            continue;
        }
        for (std::uint32_t bit = 0; bit < 8; ++bit) {
            const auto c = static_cast<TraceCategory>(1u << bit);
            if (tok == traceCategoryName(c))
                mask |= (1u << bit);
        }
    }
    return mask;
}

namespace
{

/**
 * Process-global intern table. Lives independently of any recorder so
 * ids handed out to function-local statics in trace points stay valid
 * across recorder swaps and ring wraps. Mutex-guarded: interning is a
 * cold once-per-trace-point path, and worlds driven from different
 * threads may hit it at once. A deque never moves its elements on
 * growth, so references and views handed out stay valid.
 */
struct InternTable
{
    std::mutex mtx;
    std::deque<std::string> names;
    std::unordered_map<std::string_view, std::uint16_t> ids;
};

InternTable &
interns()
{
    static InternTable t;
    return t;
}

} // namespace

std::uint16_t
internTraceName(const char *name)
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    auto it = t.ids.find(name);
    if (it != t.ids.end())
        return it->second;
    if (t.names.size() >= 0xffff)
        panic("trace name intern table overflow");
    const auto id = static_cast<std::uint16_t>(t.names.size());
    t.names.emplace_back(name);
    t.ids.emplace(t.names.back(), id);
    return id;
}

const std::string &
traceNameOf(std::uint16_t id)
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    if (id >= t.names.size())
        panic("unknown interned trace name id ", id);
    return t.names[id];
}

std::vector<std::string_view>
traceNameTable()
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    return std::vector<std::string_view>(t.names.begin(), t.names.end());
}

std::size_t
traceNameCount()
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    return t.names.size();
}

TraceRecorder::TraceRecorder(std::size_t capacity)
{
    std::size_t cap = 64;
    while (cap < capacity)
        cap <<= 1;
    ring.resize(cap);
    mask = cap - 1;
}

std::vector<TraceRecord>
TraceRecorder::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(size());
    forEachRecord([&out](const TraceRecord &r) { out.push_back(r); });
    return out;
}

namespace
{

// Thread-local: one writer per ring, so the hot enabled path stays
// lock-free.
thread_local TraceRecorder *sinkRecorder = nullptr;
thread_local const EventQueue *sinkClock = nullptr;

} // namespace

namespace detail
{

void
emitTrace(TraceCategory cat, std::uint16_t name, TraceKind kind,
          const TraceIds &ids, std::int64_t arg0, std::int64_t arg1)
{
    TraceRecorder *rec = sinkRecorder;
    if (!rec)
        return;
    TraceRecord r;
    r.when = sinkClock ? sinkClock->now() : 0;
    r.name = name;
    std::uint8_t bit = 0;
    for (std::uint32_t v = static_cast<std::uint32_t>(cat); v > 1; v >>= 1)
        ++bit;
    r.cat = bit;
    r.kind = kind;
    r.device = ids.device;
    r.pid = ids.pid;
    r.session = ids.session;
    r.arg0 = arg0;
    r.arg1 = arg1;
    rec->push(r);
}

} // namespace detail

void
setTraceSink(TraceRecorder *r, std::uint32_t mask, const EventQueue *clock)
{
    sinkRecorder = r;
    sinkClock = r ? clock : nullptr;
    detail::activeMask = r ? mask : 0;
}

TraceRecorder *
traceSink()
{
    return sinkRecorder;
}

} // namespace obs
} // namespace neon
