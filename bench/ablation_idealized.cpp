/**
 * @file
 * §5.3 "Comparison to idealized system": realistic RETCON (16/16/32
 * structures, serial pre-commit reacquire, serial commit stores)
 * versus an idealized variant with unlimited state, parallel
 * reacquire, and free commit-time stores. The paper found the
 * difference negligible; the abort-bound workloads below check that.
 *
 * Also sweeps the §5.1 predictor train-down threshold (the "100
 * conflicts before retrying symbolic tracking" design choice) and the
 * §2 contention-management policy claim (oldest-wins is robust).
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

namespace {

const char *kWorkloads[] = {"genome-sz", "intruder_opt-sz",
                            "vacation_opt-sz", "python_opt"};

/// Requester-loses/wins have no forward-progress guarantee (the
/// pathologies of Bobba et al. the paper cites). Each policy run is
/// capped at this multiple of the workload's oldest-wins cycles, so a
/// livelock terminates and shows as such; at RETCON_SCALE=0.1 the runs
/// that do finish take at most 2.1x oldest-wins.
constexpr Cycle kLivelockFactor = 20;

} // namespace

int
main()
{
    printHeader("Ablations: idealized RETCON (§5.3), predictor "
                "train-down (§5.1), CM policy (§2)",
                "RETCON (ISCA 2010), §5.3 / §5.1 / §2");

    std::printf("--- idealized RETCON vs realistic ---\n");
    std::printf("%-18s %12s %12s %8s\n", "workload", "realistic",
                "idealized", "delta");
    for (const char *name : kWorkloads) {
        api::RunConfig cfg = baseConfig(name);
        cfg.tm = api::retconConfig();
        Cycle real = api::runOnce(cfg).cycles;
        cfg.tm.idealized = true;
        Cycle ideal = api::runOnce(cfg).cycles;
        std::printf("%-18s %12llu %12llu %+7.1f%%\n", name,
                    static_cast<unsigned long long>(real),
                    static_cast<unsigned long long>(ideal),
                    100.0 * (double(real) - double(ideal)) /
                        double(real));
        std::fflush(stdout);
    }

    std::printf("\n--- predictor train-down threshold (genome-sz) ---\n");
    std::printf("%8s %12s %10s\n", "thresh", "cycles", "violations");
    for (std::uint32_t thresh : {1u, 10u, 100u, 1000u}) {
        api::RunConfig cfg = baseConfig("genome-sz");
        cfg.tm = api::retconConfig();
        cfg.tm.predictor.trainDownConflicts = thresh;
        api::RunResult r = api::runOnce(cfg);
        std::printf("%8u %12llu %10llu\n", thresh,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(
                        r.machineStats
                            .abortsByCause[static_cast<int>(
                                htm::AbortCause::ConstraintViolation)]));
        std::fflush(stdout);
    }

    std::printf("\n--- contention management policy (eager baseline; "
                "LIVELOCK = still running at %llux oldest-wins) ---\n",
                static_cast<unsigned long long>(kLivelockFactor));
    std::printf("%-18s %12s %12s %12s\n", "workload", "oldest-wins",
                "req-loses", "req-wins");
    for (const char *name : {"intruder", "vacation", "kmeans"}) {
        api::RunConfig cfg = baseConfig(name);
        cfg.tm = api::eagerConfig();
        Cycle oldest = api::runOnce(cfg).cycles;
        std::printf("%-18s %12llu", name,
                    static_cast<unsigned long long>(oldest));
        std::fflush(stdout);
        cfg.maxCycles = kLivelockFactor * oldest;
        for (auto policy :
             {htm::CMPolicy::RequesterLoses, htm::CMPolicy::RequesterWins}) {
            cfg.tm.cmPolicy = policy;
            api::RunResult r = api::runOnce(cfg);
            // A run stopped at the cap leaves work undone and fails
            // validation; its last event may fall just short of the
            // cap, so the cycle count alone does not show it.
            if (!r.validation.ok)
                std::printf("     LIVELOCK");
            else
                std::printf(" %12llu",
                            static_cast<unsigned long long>(r.cycles));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    return 0;
}
