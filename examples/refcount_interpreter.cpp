/**
 * @file
 * The paper's motivating scenario (§1, §3): a bytecode interpreter
 * whose threads elide a global lock and constantly bump reference
 * counts of shared objects. Run the python_opt workload model at a
 * small scale under eager / lazy-vb / RETCON and report speedups over
 * sequential — the headline "no scaling becomes near-linear scaling"
 * result, scaled down to run in seconds. Exits 1 if any run fails
 * its workload validation.
 */

#include <cstdio>

#include "api/runner.hpp"

using namespace retcon;

int
main()
{
    std::printf("python_opt (refcount interpreter), 16 cores, small "
                "input\n");
    api::RunConfig cfg;
    cfg.workload = "python_opt";
    cfg.nthreads = 16;
    cfg.scale = 0.25;
    Cycle seq = api::sequentialCycles(cfg);
    std::printf("sequential: %llu cycles\n",
                (unsigned long long)seq);
    bool ok = true;
    for (auto &[label, tm] : api::paperConfigs()) {
        cfg.tm = tm;
        api::RunResult r = api::runOnce(cfg);
        std::printf("%-8s %10llu cycles  speedup %5.2fx  (aborts %llu, "
                    "valid=%s)\n",
                    label, (unsigned long long)r.cycles,
                    double(seq) / double(r.cycles),
                    (unsigned long long)r.machineStats.aborts,
                    r.validation.ok ? "yes" : "NO");
        ok = ok && r.validation.ok;
    }
    return ok ? 0 : 1;
}
