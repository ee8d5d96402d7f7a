#include "bench.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench
{

SpanRecorder *activeSpans = nullptr;

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
           << ",\"ts\":" << fmtNumber(s.startUs)
           << ",\"dur\":" << fmtNumber(s.endUs - s.startUs)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"workload\":" << jsonString(s.workload) << "}}";
    }
    os << "\n]}\n";
}

void
SpanRecorder::writeLayerTable(std::ostream &os) const
{
    struct Row
    {
        std::uint64_t calls = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };
    std::vector<double> childUs(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childUs[s.parent] += s.endUs - s.startUs;
    }
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Row &r = rows[spans[i].name];
        const double d = spans[i].endUs - spans[i].startUs;
        ++r.calls;
        r.totalUs += d;
        r.selfUs += d - childUs[i];
    }
    os << std::left << std::setw(44) << "span" << std::right
       << std::setw(10) << "calls" << std::setw(14) << "total_ms"
       << std::setw(14) << "self_ms" << "\n";
    for (const auto &[name, r] : rows) {
        os << std::left << std::setw(44) << name << std::right
           << std::setw(10) << r.calls << std::setw(14) << std::fixed
           << std::setprecision(3) << r.totalUs / 1e3 << std::setw(14)
           << r.selfUs / 1e3 << "\n";
    }
    os.unsetf(std::ios::fixed);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace
{

/** Recursive-descent JSON syntax check (RFC 8259 grammar, no DOM). */
class JsonChecker
{
  public:
    JsonChecker(const char *p, const char *end) : p(p), end(end) {}

    bool
    document()
    {
        ws();
        if (!value(0))
            return false;
        ws();
        return p == end;
    }

  private:
    void
    ws()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    lit(const char *s)
    {
        const std::size_t n = std::strlen(s);
        if (static_cast<std::size_t>(end - p) < n ||
            std::memcmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool
    string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end) {
            const unsigned char c = static_cast<unsigned char>(*p);
            if (c == '"') {
                ++p;
                return true;
            }
            if (c < 0x20)
                return false;
            if (c == '\\') {
                ++p;
                if (p >= end)
                    return false;
                if (*p == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || !std::isxdigit(
                                            static_cast<unsigned char>(*p)))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", *p)) {
                    return false;
                }
            }
            ++p;
        }
        return false;
    }

    bool
    digits()
    {
        const char *s = p;
        while (p < end && *p >= '0' && *p <= '9')
            ++p;
        return p > s;
    }

    bool
    number()
    {
        if (p < end && *p == '-')
            ++p;
        if (p < end && *p == '0')
            ++p;
        else if (!digits())
            return false;
        if (p < end && *p == '.') {
            ++p;
            if (!digits())
                return false;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (!digits())
                return false;
        }
        return true;
    }

    bool
    value(int depth)
    {
        if (p >= end || depth > 256)
            return false;
        switch (*p) {
          case '{': {
            ++p;
            ws();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            for (;;) {
                ws();
                if (!string())
                    return false;
                ws();
                if (p >= end || *p != ':')
                    return false;
                ++p;
                ws();
                if (!value(depth + 1))
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return false;
            }
          }
          case '[': {
            ++p;
            ws();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            for (;;) {
                ws();
                if (!value(depth + 1))
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return false;
            }
          }
          case '"':
            return string();
          case 't':
            return lit("true");
          case 'f':
            return lit("false");
          case 'n':
            return lit("null");
          default:
            return number();
        }
    }

    const char *p;
    const char *end;
};

} // namespace

bool
jsonParses(const std::string &text)
{
    return JsonChecker(text.data(), text.data() + text.size()).document();
}

bool
jsonLinesParse(const std::string &text)
{
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > pos) {
            if (!JsonChecker(text.data() + pos, text.data() + nl)
                     .document())
                return false;
            ++lines;
        }
        pos = nl + 1;
    }
    return lines > 0;
}

bool
csvRectangular(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    std::size_t cols = 0;
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const std::size_t n =
            static_cast<std::size_t>(std::count(line.begin(), line.end(),
                                                ',')) +
            1;
        if (rows++ == 0)
            cols = n;
        else if (n != cols)
            return false;
    }
    return rows > 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::string
fmtNumber(double v)
{
    if (!(v == v) || v > 1e300 || v < -1e300)
        return "0";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

} // namespace perfbench
