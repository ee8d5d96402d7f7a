/**
 * @file
 * Shared plumbing for the NEON-Sim benchmark binary: host timing, the
 * in-memory span recorder, metric tables, hashing, and a JSON syntax
 * checker for the exported files.
 *
 * Spans are recorded only from the benchmark's own code, around each
 * call it makes into a simulator layer; nothing inside src/ is
 * instrumented. With no recorder installed a ScopedSpan is one branch.
 */

#ifndef NEON_PERFBENCH_BENCH_HH
#define NEON_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One timed call into a layer. Times are microseconds since the epoch
 *  of the recorder; parent is an index into the recorder's spans. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    std::string workload;
};

/** Keeps spans in memory; written out once the run ends. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string workload)
        : workload(std::move(workload)), epoch(Clock::now())
    {
    }

    int
    open(const char *name)
    {
        spans.push_back({name, nowUs(), 0.0, current, workload});
        current = static_cast<int>(spans.size()) - 1;
        return current;
    }

    void
    close(int idx)
    {
        spans[idx].endUs = nowUs();
        current = spans[idx].parent;
    }

    /** Chrome trace-event JSON ("X" complete events, one track). */
    void writeChromeTrace(std::ostream &os) const;

    /** Per-name table: calls, total and self milliseconds. */
    void writeLayerTable(std::ostream &os) const;

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch)
            .count();
    }

    std::string workload;
    Clock::time_point epoch;
    std::vector<Span> spans;
    int current = -1;
};

/** The recorder spans go to; null during untimed runs. */
extern SpanRecorder *activeSpans;

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : idx(activeSpans ? activeSpans->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (idx >= 0 && activeSpans)
            activeSpans->close(idx);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int idx;
};

/** Keep @p v observable so a timed loop producing it is not elided. */
template <typename T>
inline void
keep(const T &v)
{
    asm volatile("" : : "r,m"(v) : "memory");
}

/** A reported metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricTable = std::map<std::string, Metric>;

/** Incremental FNV-1a (64-bit) over raw bytes. */
class Digest
{
  public:
    template <typename T>
    Digest &
    add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b)
            mix(c);
        return *this;
    }

    Digest &
    add(const std::string &s)
    {
        for (unsigned char c : s)
            mix(c);
        return add(s.size());
    }

    std::string hex() const;

  private:
    void
    mix(unsigned char c)
    {
        h ^= c;
        h *= 0x100000001b3ULL;
    }

    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** True when @p text is exactly one well-formed JSON value. */
bool jsonParses(const std::string &text);

/** True when every non-empty line of @p text is well-formed JSON. */
bool jsonLinesParse(const std::string &text);

/** True when every row of @p text has as many cells as its header. */
bool csvRectangular(const std::string &text);

/** Whole file as a string (empty when missing). */
std::string readFile(const std::string &path);

/** Size of a file in bytes (0 when missing). */
std::uint64_t fileBytes(const std::string &path);

/** Shortest round-trip decimal form of @p v, for JSON output. */
std::string fmtNumber(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // NEON_PERFBENCH_BENCH_HH
