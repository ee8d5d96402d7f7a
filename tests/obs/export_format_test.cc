/**
 * @file
 * Unit tests for the export text formatting: TextWriter prints numbers
 * (and integer ticks as microseconds) exactly as an ostream at
 * precision(15) does (the format the exports have always had),
 * records.jsonl escapes trace-point names so every line stays valid
 * JSON, and a failed export write is fatal.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/observe.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

using namespace obs;

template <typename T>
std::string
viaWriter(T v)
{
    std::ostringstream os;
    TextWriter w(os);
    w.put(v);
    w.flush();
    return os.str();
}

template <typename T>
std::string
viaStream(T v)
{
    std::ostringstream os;
    os.precision(15);
    os << v;
    return os.str();
}

TEST(TextWriter, DoublesMatchOstreamAtPrecision15)
{
    const double counter =
        std::bit_cast<double>(std::bit_cast<std::int64_t>(2.0 / 3.0));
    for (const double v :
         {0.0, 1e-7, 0.001, 1499999.999, 123456.789012345678, 1e15, 1e16,
          1e21, -1e-7, -0.001, -1499999.999, -123456.789012345678, -1e16,
          counter, toUsec(sec(1234) + 7), 0.1 + 0.2}) {
        EXPECT_EQ(viaWriter(v), viaStream(v)) << "value " << viaStream(v);
    }
}

/**
 * putUsec(t) against an ostream at precision(15) printing toUsec(t),
 * for each of @p ticks. One writer and one stream print all of them, a
 * line each; the first differing line names the tick.
 */
void
expectUsecMatchesStream(const std::vector<Tick> &ticks)
{
    std::ostringstream viaW, viaS;
    viaS.precision(15);
    TextWriter w(viaW);
    for (const Tick t : ticks) {
        w.putUsec(t);
        w.put('\n');
        viaS << toUsec(t) << '\n';
    }
    w.flush();
    if (viaW.str() == viaS.str())
        return;
    std::istringstream a(viaW.str()), b(viaS.str());
    std::string la, lb;
    for (const Tick t : ticks) {
        std::getline(a, la);
        std::getline(b, lb);
        ASSERT_EQ(la, lb) << "tick " << t;
    }
}

TEST(TextWriter, UsecMatchesOstreamAtPrecision15)
{
    // Every tick below two milliseconds.
    std::vector<Tick> ticks(2'000'000);
    std::iota(ticks.begin(), ticks.end(), Tick{0});
    expectUsecMatchesStream(ticks);

    // Seeded random ticks across the whole integer-path range.
    std::mt19937_64 rng(20140301);
    std::uniform_int_distribution<Tick> below(0, 999'999'999'999'999);
    ticks.resize(1'000'000);
    for (Tick &t : ticks)
        t = below(rng);
    expectUsecMatchesStream(ticks);

    // The boundaries; the last three take the double path.
    expectUsecMatchesStream({999, 1000, 1001, 999'999'999'999'999,
                             1'000'000'000'000'000, maxTick, -1});
}

TEST(TextWriter, IntegersMatchOstream)
{
    EXPECT_EQ(viaWriter(std::numeric_limits<std::int64_t>::min()),
              viaStream(std::numeric_limits<std::int64_t>::min()));
    EXPECT_EQ(viaWriter(std::numeric_limits<std::int64_t>::max()),
              viaStream(std::numeric_limits<std::int64_t>::max()));
    EXPECT_EQ(viaWriter(std::int16_t{-1}), viaStream(std::int16_t{-1}));
    EXPECT_EQ(viaWriter(std::numeric_limits<std::uint32_t>::max()),
              viaStream(std::numeric_limits<std::uint32_t>::max()));
    EXPECT_EQ(viaWriter(std::int32_t{-1}), "-1");
    EXPECT_EQ(viaWriter(std::uint32_t{0}), "0");
}

TEST(TextWriter, LongOutputSurvivesChunkFlushes)
{
    std::ostringstream os;
    std::string expect;
    TextWriter w(os);
    const std::string big(3 << 20, 'x'); // larger than one chunk
    for (int i = 0; i < 200000; ++i) {
        w.put(std::int64_t{i});
        w.put(',');
        expect += std::to_string(i) + ',';
    }
    w.put(big);
    w.putJsonString("a\"b");
    w.flush();
    expect += big + "a\\\"b";
    EXPECT_EQ(os.str(), expect);
}

/**
 * Strict parser for one flat JSON object whose members are strings or
 * integers (the records.jsonl line shape). Returns false on any syntax
 * error; string members come back unescaped.
 */
bool
parseFlatObject(std::string_view s, std::map<std::string, std::string> &out)
{
    std::size_t i = 0;
    const auto ws = [&] {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    };
    const auto str = [&](std::string &v) {
        if (i >= s.size() || s[i] != '"')
            return false;
        for (++i; i < s.size(); ++i) {
            const char c = s[i];
            if (c == '"') {
                ++i;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                v += c;
                continue;
            }
            if (++i >= s.size())
                return false;
            switch (s[i]) {
              case '"': v += '"'; break;
              case '\\': v += '\\'; break;
              case 'n': v += '\n'; break;
              case 't': v += '\t'; break;
              case 'r': v += '\r'; break;
              default: return false;
            }
        }
        return false;
    };
    ws();
    if (i >= s.size() || s[i++] != '{')
        return false;
    for (;;) {
        ws();
        std::string key, val;
        if (!str(key))
            return false;
        ws();
        if (i >= s.size() || s[i++] != ':')
            return false;
        ws();
        if (i < s.size() && s[i] == '"') {
            if (!str(val))
                return false;
        } else {
            const std::size_t start = i;
            if (i < s.size() && s[i] == '-')
                ++i;
            while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
                ++i;
            if (i == start || s[i - 1] == '-')
                return false;
            val = std::string(s.substr(start, i - start));
        }
        out[key] = val;
        ws();
        if (i >= s.size())
            return false;
        if (s[i] == ',') {
            ++i;
            continue;
        }
        if (s[i++] != '}')
            return false;
        ws();
        return i == s.size();
    }
}

TEST(RecordsJsonl, QuotedNameYieldsValidJsonLine)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("neon_records_escape_" + std::to_string(::getpid()) + ".jsonl");

    EventQueue eq;
    ObserveConfig cfg;
    cfg.categories = defaultTraceCategories;
    cfg.recordsJsonlPath = path.string();
    {
        Observer observer(eq, cfg);
        NEON_TRACE(TraceCategory::Serve, TraceKind::Instant,
                   "mark \"quoted\"", (TraceIds{1, 2, 3}), -4, 5);
        observer.writeOutputs();
    }

    std::ifstream is(path);
    std::string line, extra;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_FALSE(std::getline(is, extra)) << "one record, one line";
    is.close();
    std::filesystem::remove(path);

    std::map<std::string, std::string> obj;
    ASSERT_TRUE(parseFlatObject(line, obj)) << line;
    EXPECT_EQ(obj["name"], "mark \"quoted\"");
    EXPECT_EQ(obj["cat"], "serve");
    EXPECT_EQ(obj["device"], "1");
    EXPECT_EQ(obj["pid"], "2");
    EXPECT_EQ(obj["session"], "3");
    EXPECT_EQ(obj["arg0"], "-4");
    EXPECT_EQ(obj["arg1"], "5");
}

TEST(ExportFiles, TraceWriteFailureIsFatal)
{
    // /dev/full opens fine and fails every write: the export must not
    // leave a silently truncated file.
    EventQueue eq;
    ObserveConfig cfg;
    cfg.categories = defaultTraceCategories;
    cfg.tracePath = "/dev/full";
    EXPECT_DEATH(
        {
            Observer observer(eq, cfg);
            NEON_TRACE(TraceCategory::Serve, TraceKind::Instant, "mark",
                       (TraceIds{0, 1, 2}), 3, 4);
            observer.writeOutputs();
        },
        "cannot write trace output '/dev/full'");
}

} // namespace
} // namespace neon
