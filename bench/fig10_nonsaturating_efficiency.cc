/**
 * @file
 * Figure 10 reproduction: concurrency efficiency for the
 * nonsaturating DCT-vs-Throttle mix across off ratios.
 */

#include "common.hh"

#include "metrics/efficiency.hh"

using namespace neonbench;

int
main()
{
    banner("Figure 10",
           "efficiency with nonsaturating co-runners");

    SoloCache solo(2.5);
    const std::vector<double> ratios = {0.0, 0.2, 0.4, 0.6, 0.8};

    Table table({"scheduler", "0%", "20%", "40%", "60%", "80%"});

    std::map<std::string, std::map<double, double>> eff;

    for (SchedKind kind : paperSchedulers) {
        std::vector<std::string> row = {schedKindName(kind)};
        for (double ratio : ratios) {
            const WorkloadSpec wd = WorkloadSpec::app("DCT");
            const WorkloadSpec wt =
                WorkloadSpec::throttle(usec(1700), ratio);

            ExperimentRunner runner(baseConfig(kind, 3.0));
            const RunResult r = runner.run({wd, wt});

            const double e = concurrencyEfficiency(
                {solo.roundUs(wd), solo.roundUs(wt)},
                {r.tasks[0].meanRoundUs, r.tasks[1].meanRoundUs});
            eff[schedKindName(kind)][ratio] = e;
            row.push_back(Table::num(e, 2));
        }
        table.addRow(std::move(row));
    }

    table.print();

    // The paper's headline: losses relative to direct access at the
    // 80% off ratio.
    const double direct80 = eff["direct"][0.8];
    std::cout << "\nEfficiency loss vs direct access at 80% off time:\n";
    const std::vector<std::pair<SchedKind, const char *>> paper_loss = {
        {SchedKind::Timeslice, "36%"},
        {SchedKind::DisengagedTimeslice, "34%"},
        {SchedKind::DisengagedFq, "~0%"},
    };
    for (const auto &[kind, paper] : paper_loss) {
        const double v = eff[schedKindName(kind)][0.8];
        std::cout << "  " << schedKindName(kind) << ": "
                  << Table::num(100.0 * (1.0 - v / direct80), 1)
                  << "% (paper: " << paper << ")\n";
    }
    return 0;
}
