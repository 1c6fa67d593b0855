/**
 * @file
 * Table 3: RETCON structure utilization and pre-commit runtime
 * overhead — average (max) of 64B blocks stolen per transaction, IVB
 * entries, symbolic registers repaired, symbolic stores drained,
 * constraint addresses checked, pre-commit stall cycles, and the
 * pre-commit share of transaction lifetime.
 *
 * `symregs` counts one register: the transaction's return value,
 * which is 1 when it leaves the body symbolic and is repaired at
 * commit (Core::deliverResult), else 0. Other registers a body holds
 * live are not tracked to commit, so the column's max is 1.
 *
 * The paper's conclusions to verify: the 16-entry IVB / 16-entry
 * constraint buffer / 32-entry SSB are ample (averages of a few
 * entries), and pre-commit repair costs under a few percent of
 * transaction lifetime everywhere (python the heaviest).
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

int
main()
{
    printHeader("Table 3: RETCON structure utilization",
                "RETCON (ISCA 2010), Table 3");
    std::printf("%-18s %-11s %-11s %-11s %-11s %-11s %8s %7s\n",
                "workload", "lost", "tracked", "symregs", "privst",
                "constr", "commitcy", "stall%");
    for (const auto &name : workloads::workloadNames()) {
        api::RunConfig cfg = baseConfig(name);
        cfg.tm = api::retconConfig();
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, name);
        const auto &m = r.machineStats;
        auto cell = [](const AvgMax &a) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f (%.0f)", a.avg(),
                          a.max());
            return std::string(buf);
        };
        std::printf("%-18s %-11s %-11s %-11s %-11s %-11s %8.1f %6.2f%%\n",
                    name.c_str(), cell(m.blocksLost).c_str(),
                    cell(m.blocksTracked).c_str(),
                    cell(m.symRegs).c_str(),
                    cell(m.privateStores).c_str(),
                    cell(m.constraintAddrs).c_str(),
                    m.commitCycles.avg(), m.commitStallPct());
        std::fflush(stdout);
    }
    return 0;
}
