/**
 * @file
 * Figure 7 reproduction: concurrency efficiency (sum over tasks of
 * solo/co-run round times) for the Figure 6 application pairs.
 */

#include "common.hh"

#include <numeric>

#include "metrics/efficiency.hh"

using namespace neonbench;

int
main()
{
    banner("Figure 7", "efficiency of concurrent executions");

    SoloCache solo(2.5);
    const std::vector<std::string> apps = {"DCT", "FFT", "glxgears",
                                           "oclParticles"};
    const std::vector<double> sizes_us = {19, 106, 430, 1700};

    // Every cell's efficiency per scheduler, in grid order.
    std::map<SchedKind, std::vector<double>> cells;

    for (const auto &app : apps) {
        std::cout << app << " vs Throttle — concurrency efficiency\n";
        Table table({"scheduler", "19us", "106us", "430us", "1700us"});

        for (SchedKind kind : paperSchedulers) {
            std::vector<std::string> row = {schedKindName(kind)};
            for (double us : sizes_us) {
                const WorkloadSpec wa = WorkloadSpec::app(app);
                const WorkloadSpec wt =
                    WorkloadSpec::throttle(usec(us));

                ExperimentRunner runner(baseConfig(kind, 2.5));
                const RunResult r = runner.run({wa, wt});

                const double eff = concurrencyEfficiency(
                    {solo.roundUs(wa), solo.roundUs(wt)},
                    {r.tasks[0].meanRoundUs, r.tasks[1].meanRoundUs});
                cells[kind].push_back(eff);
                row.push_back(Table::num(eff, 2));
            }
            table.addRow(std::move(row));
        }
        table.print();
        std::cout << "\n";
    }

    // The paper's headline: each scheduler's mean efficiency over the
    // 16 cells, relative to direct access's mean over the same cells.
    const auto mean = [](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    };
    const double direct = mean(cells[SchedKind::Direct]);
    const std::vector<std::pair<SchedKind, const char *>> paper_loss = {
        {SchedKind::Timeslice, "~19%"},
        {SchedKind::DisengagedTimeslice, "~10%"},
        {SchedKind::DisengagedFq, "~4%"},
    };
    std::cout << "Mean efficiency over the "
              << cells[SchedKind::Direct].size()
              << " cells, relative to direct access:\n";
    for (const auto &[kind, paper] : paper_loss) {
        const double rel = mean(cells[kind]) / direct;
        std::cout << "  " << schedKindName(kind) << ": "
                  << Table::num(rel, 2) << " (loss "
                  << Table::num(100.0 * (1.0 - rel), 1)
                  << "%; paper: " << paper << ")\n";
    }
    std::cout << "\n";

    std::cout << "Paper shape: direct access sits near 1.0 (below for "
                 "small requests due to\ncontext switching); engaged "
                 "Timeslice loses ~19% on average, Disengaged\n"
                 "Timeslice ~10%, Disengaged Fair Queueing ~4% (worst "
                 "case on the multi-channel\noclParticles pair)."
              << std::endl;
    return 0;
}
