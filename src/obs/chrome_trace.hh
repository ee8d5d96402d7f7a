/**
 * @file
 * Chrome trace-event JSON export.
 *
 * Converts a TraceRecorder snapshot into the Trace Event Format that
 * chrome://tracing and Perfetto load directly: per-device process
 * tracks (pid = device index + 1; pid 0 carries fleet/serve-wide
 * events and counter tracks), duration spans with per-track stack
 * discipline, async session spans keyed by session id (so they
 * overlap freely), flow arrows following a session across device
 * tracks (admission -> migrations -> departure), and counter tracks
 * from sampled metrics.
 *
 * One lowering turns records into events, and it has two sinks.
 * buildChromeEvents() collects the events into an inspectable list
 * (what the tests check for track-monotonic timestamps and span
 * pairing); writeChromeTrace(os, recorder) streams them straight from
 * the ring into the JSON text. The stream reads the ring twice in
 * place: pass 1 numbers the lanes (the header names them before any
 * event), pass 2 lowers and writes each event. No event list is built.
 *
 * Exports run to tens of megabytes per run, so nothing is allocated
 * per record: names are views into the process-lifetime intern table
 * (taken once per export), lanes and span stacks are dense tables
 * keyed by (pid, interned name id), timestamps stay integer ticks, and
 * serialization goes through TextWriter instead of ostream formatting.
 */

#ifndef NEON_OBS_CHROME_TRACE_HH
#define NEON_OBS_CHROME_TRACE_HH

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hh"

namespace neon
{
namespace obs
{

/** One Chrome trace event, ready to serialize. */
struct ChromeEvent
{
    char ph = 'i';          ///< B/E/i/b/e/s/t/f/C
    Tick ts = 0;            ///< virtual time; printed in microseconds
    std::uint32_t pid = 0;  ///< device track (device + 1; 0 = global)
    std::uint32_t tid = 0;  ///< lane within the track
    std::string_view name;  ///< interned trace-point name
    std::string_view cat;   ///< traceCategoryName() literal
    std::int64_t id = -1;   ///< async/flow binding id (session)
    bool hasValue = false;  ///< C events carry a numeric value
    double value = 0.0;
    std::int32_t argPid = -1;     ///< "pid" arg (task id), -1 = none
    std::int64_t argA = 0;        ///< extra payload args
    std::int64_t argB = 0;
    bool hasArgs = false;
};

/** A named lane (Chrome "thread") within a device track. */
struct ChromeLane
{
    std::uint32_t pid;
    std::uint32_t tid;
    std::string_view name; ///< interned label (span name, marks, sessions)
};

/** The built timeline: events plus track/lane naming metadata. */
struct ChromeTimeline
{
    std::vector<ChromeEvent> events;
    std::vector<ChromeLane> lanes;
    std::uint32_t processCount = 1; ///< pids 0..processCount-1 in use
};

/**
 * Lower trace records into Chrome events.
 *
 * Records must be in capture order (TraceRecorder::snapshot()). Begin/
 * End records pair up per (track, name) lane; an End with no open
 * Begin on its lane (the Begin fell off the ring) is dropped rather
 * than emitted unbalanced, and spans still open at the end of the
 * capture are closed at the last seen timestamp so viewers don't
 * extend them to infinity. Lanes are numbered per track in discovery
 * order; dangling spans are closed in (pid, tid) order.
 */
ChromeTimeline buildChromeEvents(const std::vector<TraceRecord> &records);

/** Serialize a built timeline as Chrome trace JSON. */
void writeChromeTrace(std::ostream &os, const ChromeTimeline &tl);

/**
 * Lower and serialize a recorder's held records, streamed from the
 * ring in place. Byte-identical to serializing
 * buildChromeEvents(rec.snapshot()).
 */
void writeChromeTrace(std::ostream &os, const TraceRecorder &rec);

/** Escape a string for embedding in a JSON literal (no quotes added). */
std::string jsonEscape(std::string_view s);

/** Open @p path for writing the @p what export, or fatal(). */
std::ofstream openExport(const std::string &path, const char *what);

/**
 * Close an export opened by openExport() and fatal() if any write to
 * it failed, so a full disk never leaves a silently truncated file.
 */
void closeExport(std::ofstream &os, const std::string &path,
                 const char *what);

/**
 * Buffered text writer for the exports. It formats straight into a
 * one-megabyte buffer and hands the stream whole chunks. Numbers go
 * through std::to_chars: integers in decimal, doubles as
 * chars_format::general at 15 significant digits, which prints exactly
 * what an ostream at precision(15) prints (both are printf's "%.15g").
 * The stream's own formatting flags play no part. Call flush() when
 * done; the destructor does not write.
 */
class TextWriter
{
  public:
    explicit TextWriter(std::ostream &os) : os(os), buf(chunk) {}

    void
    put(char c)
    {
        room(1);
        buf[len++] = c;
    }

    void
    put(std::string_view s)
    {
        if (s.size() > chunk) {
            flush();
            os.write(s.data(), static_cast<std::streamsize>(s.size()));
            return;
        }
        room(s.size());
        std::memcpy(buf.data() + len, s.data(), s.size());
        len += s.size();
    }

    /** Integers wider than a byte, in decimal (as ostream prints them). */
    template <std::integral T>
        requires(sizeof(T) > 1)
    void
    put(T v)
    {
        room(maxNumber);
        len = std::to_chars(buf.data() + len, buf.data() + chunk, v).ptr -
              buf.data();
    }

    /** A double as an ostream at precision(15) prints it. */
    void
    put(double v)
    {
        room(maxNumber);
        len = std::to_chars(buf.data() + len, buf.data() + chunk, v,
                            std::chars_format::general, 15)
                  .ptr -
              buf.data();
    }

    /**
     * Tick @p t (nanoseconds) in microseconds, exactly as put(toUsec(t))
     * prints it, but from integers: t / 1000, then '.' and the three
     * remainder digits with trailing zeros stripped. For 0 <= t < 10^15
     * the quotient has at most 15 significant digits, so "%.15g" of the
     * double prints the same decimal; outside that range this takes
     * the double path.
     */
    void
    putUsec(Tick t)
    {
        if (t < 0 || t >= maxExactUsecTick) {
            put(toUsec(t));
            return;
        }
        room(maxNumber);
        char *p = std::to_chars(buf.data() + len, buf.data() + chunk,
                                t / 1000)
                      .ptr;
        if (const int rem = static_cast<int>(t % 1000)) {
            *p++ = '.';
            *p++ = static_cast<char>('0' + rem / 100);
            if (rem % 100) {
                *p++ = static_cast<char>('0' + rem / 10 % 10);
                if (rem % 10)
                    *p++ = static_cast<char>('0' + rem % 10);
            }
        }
        len = static_cast<std::size_t>(p - buf.data());
    }

    /** A JSON string body, escaped only if @p s holds a special. */
    void
    putJsonString(std::string_view s)
    {
        const bool plain = std::none_of(s.begin(), s.end(), [](char c) {
            return c == '"' || c == '\\' ||
                   static_cast<unsigned char>(c) < 0x20;
        });
        put(plain ? s : std::string_view(jsonEscape(s)));
    }

    /** Hand everything buffered to the stream. */
    void
    flush()
    {
        os.write(buf.data(), static_cast<std::streamsize>(len));
        len = 0;
    }

  private:
    static constexpr std::size_t chunk = std::size_t(1) << 20;
    static constexpr std::size_t maxNumber = 32; ///< >= any to_chars above
    static constexpr Tick maxExactUsecTick = 1'000'000'000'000'000;

    void
    room(std::size_t n)
    {
        if (len + n > chunk)
            flush();
    }

    std::ostream &os;
    std::vector<char> buf;
    std::size_t len = 0;
};

} // namespace obs
} // namespace neon

#endif // NEON_OBS_CHROME_TRACE_HH
