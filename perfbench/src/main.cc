/**
 * @file
 * The benchmark binary: runs one workload for a wall-clock budget and
 * prints one JSON document (metrics, correctness, run manifest) as the
 * last line of standard output. perfbench/run.py builds and calls it.
 *
 * Usage: neon_perfbench --workload NAME --seed N --seconds S
 *                       --trace 0|1 --out-dir DIR
 *                       [--commit ID] [--source-digest HEX]
 *
 * --trace 0 measures the end-to-end metrics with span recording off.
 * Host times are scaled to a reference core: the process pins itself
 * to the fastest allowed CPU, and before each repeat times a fixed
 * integer loop; each repeat's times are multiplied by
 * refLoopS / (that loop's time), which cancels the shared host's
 * minute-scale speed swings. Raw wall-clock values are reported beside
 * them as "<metric>.raw".
 * --trace 1 is the span run: layer probes, the layer ladder, and
 * alternating untimed and spanned repeats whose ratio is the span
 * overhead; spans go to DIR as Chrome-trace JSON and a per-layer table.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "probes.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "neon_perfbench: " << why
              << "\nusage: neon_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--commit ID] "
                 "[--source-digest HEX]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = int(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--out-dir") {
            a.outDir = v;
        } else if (k == "--commit") {
            a.commit = v;
        } else if (k == "--source-digest") {
            a.sourceDigest = v;
        } else {
            usage("unknown option " + k);
        }
        if (end && *end)
            usage("bad number for " + k + ": " + v);
    }
    if (!findWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
        eax >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * This process's resident-set high-water mark, in MiB. VmHWM belongs
 * to the address space, so unlike getrusage's ru_maxrss it does not
 * inherit the launching process's peak across exec.
 */
/** The reference loop's time on the host that fixed refLoopS (a 4-core
 *  Xeon KVM guest); host times are reported in its seconds. */
constexpr double refLoopS = 0.010;

/** A fixed, cache-resident integer loop; its time tracks core speed. */
double
referenceLoopS()
{
    double best = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = Clock::now();
        std::uint64_t x = 88172645463325252ULL, acc = 0;
        for (int i = 0; i < 3'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x % 7;
        }
        keep(acc);
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

/**
 * Pin the process to the allowed CPU that runs the reference loop
 * fastest; cores of a shared host differ in speed by tens of percent.
 * Returns the CPU, or -1 when affinity cannot be set.
 */
int
pinFastestCpu()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    auto pin = [](int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    };
    int best = -1;
    double bestS = 1e30;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || !pin(cpu))
            continue;
        const double t = referenceLoopS();
        if (t < bestS) {
            bestS = t;
            best = cpu;
        }
    }
    if (best < 0 || !pin(best)) {
        sched_setaffinity(0, sizeof allowed, &allowed);
        return -1;
    }
    return best;
}

double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
manifestJson(const Args &a, int cpu)
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"pinned_cpu\":" << cpu
       << ",\"cpu_model\":" << jsonString(cpuModel())
       << ",\"compiler\":" << jsonString(compilerId())
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"git_commit\":" << jsonString(a.commit)
       << ",\"source_digest\":" << jsonString(a.sourceDigest)
       << ",\"seed\":" << a.seed << ",\"config_hash\":{";
    bool first = true;
    for (const Workload &w : workloads()) {
        os << (first ? "" : ",") << jsonString(w.name) << ":"
           << jsonString(Digest().add(w.describe(a.seed)).hex());
        first = false;
    }
    os << "}}";
    return os.str();
}

/** Checks that every repeat of one seed produced the same outcome. */
struct Consistency
{
    const RepeatResult *first = nullptr;
    std::vector<std::string> failures;

    void
    add(const RepeatResult &r)
    {
        for (const std::string &f : r.failures)
            failures.push_back(f);
        if (!first) {
            first = &r;
            return;
        }
        auto same = [](const MetricTable &x, const MetricTable &y) {
            if (x.size() != y.size())
                return false;
            for (const auto &[k, m] : x) {
                const auto it = y.find(k);
                if (it == y.end() || it->second.value != m.value)
                    return false;
            }
            return true;
        };
        if (r.digest != first->digest)
            failures.push_back("sim_digest differs across repeats");
        if (!same(r.sim, first->sim))
            failures.push_back("simulated metrics differ across repeats");
        if (r.events != first->events || r.ops != first->ops)
            failures.push_back("event or operation count differs");
        if (r.exportBytes != first->exportBytes)
            failures.push_back("export sizes differ across repeats");
    }
};

void
printMetrics(std::ostream &os, const MetricTable &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << jsonString(k) << ":{\"value\":"
           << fmtNumber(v.value) << ",\"unit\":" << jsonString(v.unit)
           << "}";
        first = false;
    }
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload &w = *findWorkload(args.workload);
    const int cpu = pinFastestCpu();
    std::filesystem::create_directories(args.outDir);

    RunOptions opts;
    opts.outDir = args.outDir + "/exports-" + w.name + "-" +
        std::to_string(getpid());

    std::vector<RepeatResult> untimed, spanned;
    MetricTable metrics;
    SpanRecorder recorder(w.name);
    double rssMb = 0.0;
    const auto t0 = Clock::now();

    if (args.trace == 0) {
        // Repeat the workload until the budget is spent; medians over
        // repeats damp host noise. Three repeats at least, so the
        // per-seed digest is compared.
        do {
            opts.validateExports = untimed.empty();
            const double scale = refLoopS / referenceLoopS();
            untimed.push_back(w.run(args.seed, opts));
            untimed.back().hostScale = scale;
            // The first repeat's high-water mark: later repeats only add
            // allocator fragmentation, which would tie the figure to how
            // many repeats fit in the budget.
            if (untimed.size() == 1)
                rssMb = peakRssMb();
        } while (untimed.size() < 3 || secondsSince(t0) < args.seconds);
    } else {
        activeSpans = &recorder;
        {
            ScopedSpan s("probes");
            runProbes(args.seed, metrics);
        }
        {
            ScopedSpan s("ladder");
            runLadder(args.seed, metrics);
        }
        // Alternate untimed and spanned repeats so host drift hits
        // both sides alike.
        do {
            activeSpans = nullptr;
            opts.sliced = false;
            opts.validateExports = untimed.empty();
            untimed.push_back(w.run(args.seed, opts));
            activeSpans = &recorder;
            ScopedSpan s("workload.repeat");
            opts.sliced = true;
            opts.validateExports = false;
            spanned.push_back(w.run(args.seed, opts));
        } while (secondsSince(t0) < args.seconds);
        activeSpans = nullptr;
    }

    Consistency check;
    for (const RepeatResult &r : untimed)
        check.add(r);
    for (const RepeatResult &r : spanned)
        check.add(r);
    const RepeatResult &ref = untimed.front();

    auto med = [](const std::vector<RepeatResult> &rs, auto &&f) {
        std::vector<double> xs;
        for (const RepeatResult &r : rs)
            xs.push_back(f(r));
        return median(std::move(xs));
    };

    if (args.trace == 0) {
        // Each host metric twice: in reference-core seconds (scaled by
        // the repeat's hostScale), and raw.
        auto host = [&](const std::string &name, const char *unit,
                        double (*seconds)(const RepeatResult &),
                        double (*work)(const RepeatResult &)) {
            auto value = [&](const RepeatResult &r, double scale) {
                const double s = seconds(r) * scale;
                return work ? work(r) / s : s;
            };
            metrics[name] = {med(untimed,
                                 [&](const RepeatResult &r) {
                                     return value(r, r.hostScale);
                                 }),
                             unit};
            metrics[name + ".raw"] = {
                med(untimed,
                    [&](const RepeatResult &r) { return value(r, 1.0); }),
                unit};
        };
        host("sim_s_per_wall_s", "s/s",
             [](const RepeatResult &r) { return r.runS; },
             [](const RepeatResult &r) { return r.simS; });
        host("sessions_per_wall_s", "1/s",
             [](const RepeatResult &r) { return r.wallS(); },
             [](const RepeatResult &r) { return double(r.served); });
        host("setup_s", "s",
             [](const RepeatResult &r) { return r.setupS(); }, nullptr);
        host("report_s", "s",
             [](const RepeatResult &r) { return r.reportS(); }, nullptr);
        metrics["host.ref_loop_ms"] = {
            med(untimed,
                [](const RepeatResult &r) { return 1e3 * refLoopS / r.hostScale; }),
            "ms"};
        metrics["peak_rss_mb"] = {rssMb, "MB"};
        for (const auto &[k, m] : ref.sim)
            metrics[k] = m;
    } else {
        for (const auto &[k, m] : spanned.front().layer)
            metrics[k] = m;
        for (const auto &[k, m] : ref.sim)
            metrics[k] = m;
        const double ops = double(std::max<std::uint64_t>(ref.ops, 1));
        metrics["sim.events_per_session"] = {double(ref.events) / ops,
                                             "count"};
        metrics["sim.events_per_sim_s"] = {double(ref.events) / ref.simS,
                                           "count"};
        metrics["sim.peak_live_events"] = {double(ref.peakLive), "count"};
        metrics["sim.ns_per_event"] = {
            med(spanned,
                [](const RepeatResult &r) {
                    return r.runS * 1e9 / double(r.events);
                }),
            "ns"};
        metrics["harness.construct_s"] = {
            med(spanned, [](const RepeatResult &r) { return r.constructS; }),
            "s"};
        metrics["harness.start_s"] = {
            med(spanned, [](const RepeatResult &r) { return r.startS; }),
            "s"};
        metrics["harness.results_s"] = {
            med(spanned, [](const RepeatResult &r) { return r.resultsS; }),
            "s"};
        metrics["obs.export_s"] = {
            med(spanned, [](const RepeatResult &r) { return r.exportS; }),
            "s"};
        for (const char *kind : {"trace_json", "records_jsonl", "timeline_csv"}) {
            const auto it = ref.exportBytes.find(kind);
            metrics[std::string("obs.export_bytes.") + kind] = {
                it == ref.exportBytes.end() ? 0.0 : double(it->second),
                "bytes"};
        }
        metrics["bench.span_overhead"] = {
            med(spanned, [](const RepeatResult &r) { return r.wallS(); }) /
                    med(untimed,
                        [](const RepeatResult &r) { return r.wallS(); }) -
                1.0,
            "ratio"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};

        const std::string stem = args.outDir + "/spans-" + w.name + "-seed" +
            std::to_string(args.seed);
        std::ofstream trace(stem + ".json");
        recorder.writeChromeTrace(trace);
        std::ofstream table(stem + ".txt");
        recorder.writeLayerTable(table);
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *rs : {&untimed, &spanned}) {
        for (const RepeatResult &r : *rs) {
            attempted += r.ops;
            failed += r.failedOps;
        }
    }
    const bool correct = check.failures.empty();
    if (!correct)
        failed = attempted;

    std::cout << "{\"workload\":" << jsonString(w.name)
              << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
              << ",\"correct\":" << (correct ? "true" : "false")
              << ",\"failures\":[";
    for (std::size_t i = 0; i < check.failures.size(); ++i)
        std::cout << (i ? "," : "") << jsonString(check.failures[i]);
    std::cout << "],\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"repeats\":" << untimed.size() + spanned.size()
              << ",\"sim_digest\":" << jsonString(ref.digest)
              << ",\"wall_s\":" << fmtNumber(secondsSince(t0))
              << ",\"repeat_wall_s\":[";
    for (std::size_t i = 0; i < untimed.size(); ++i)
        std::cout << (i ? "," : "") << fmtNumber(untimed[i].wallS());
    std::cout << "],\"repeat_host_scale\":[";
    for (std::size_t i = 0; i < untimed.size(); ++i)
        std::cout << (i ? "," : "") << fmtNumber(untimed[i].hostScale);
    std::cout << "]"
              << ",\"manifest\":" << manifestJson(args, cpu) << ",\"metrics\":";
    printMetrics(std::cout, metrics);
    std::cout << "}" << std::endl;
    return 0;
}
