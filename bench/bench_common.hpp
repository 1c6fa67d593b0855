/**
 * @file
 * Shared scaffolding for the paper-reproduction bench binaries.
 *
 * Every bench accepts two environment overrides, parsed as the
 * api::applyKnob knobs `scale` and `nthreads` (a malformed value exits
 * 2 with `bad RETCON_SCALE value` / `bad RETCON_THREADS value`):
 *   RETCON_SCALE    input-size multiplier (default 0.4)
 *   RETCON_THREADS  simulated core count  (default 32, as in Table 1)
 */

#ifndef RETCON_BENCH_COMMON_HPP
#define RETCON_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/runner.hpp"
#include "api/whatif.hpp"

namespace retcon::bench {

/** Apply environment variable @p var, if set, as run knob @p knob. */
inline void
applyEnv(api::RunConfig &cfg, const char *var, const char *knob)
{
    const char *s = std::getenv(var);
    if (s && !api::applyKnob(cfg, knob, s)) {
        std::fprintf(stderr, "bad %s value '%s'\n", var, s);
        std::exit(2);
    }
}

inline api::RunConfig
baseConfig(const std::string &workload)
{
    api::RunConfig cfg;
    cfg.workload = workload;
    cfg.nthreads = 32;
    cfg.scale = 0.4;
    applyEnv(cfg, "RETCON_SCALE", "scale");
    applyEnv(cfg, "RETCON_THREADS", "nthreads");
    return cfg;
}

inline void
printHeader(const char *experiment, const char *paper_ref)
{
    api::RunConfig cfg = baseConfig("");
    std::printf("==================================================\n");
    std::printf("%s\n", experiment);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("machine: %u cores, scale %.2f "
                "(RETCON_THREADS / RETCON_SCALE to override)\n",
                cfg.nthreads, cfg.scale);
    std::printf("==================================================\n");
}

inline void
flagInvalid(const api::RunResult &r, const std::string &workload)
{
    if (!r.validation.ok)
        std::printf("!! %s failed validation: %s\n", workload.c_str(),
                    r.validation.note.c_str());
}

} // namespace retcon::bench

#endif // RETCON_BENCH_COMMON_HPP
