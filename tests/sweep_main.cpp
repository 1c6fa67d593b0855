// Development sweep driver: run every workload under the three paper
// configurations plus DATM, validate functional state, print speedups.
//
// Usage: sweep_main [--quick] [--audit] [--shards N] [--mem-banks N]
//                   [--backoff P] [--clusters N] [--xc-fraction F]
//                   [--jobs N] [--annotate-phases]
//                   [--scenario NAME|all] [--list-scenarios]
//                   [scale] [nthreads] [workload]
//   --scenario NAME|all
//                 sweep scenarios instead of workloads: each row is one
//                 registered scenario (scenario/scenario.hpp) driving
//                 the service workload under every machine config.
//                 Unknown names exit non-zero. The sweep fails if any
//                 scenario was vacuous — an open-loop scenario that
//                 injected nothing, a fault scenario whose fault never
//                 fired, or an arrival ledger that does not conserve
//                 (injected == completed + dropped).
//   --list-scenarios
//                 print the scenario registry (name + description) and
//                 exit.
//   --annotate-phases
//                 emit per-phase user-mark annotations in the service
//                 workload (each worker marks its request-range
//                 quarters 1..4). Audit-stream-only: rows, validation,
//                 and timing are unchanged; the marks anchor
//                 retcon-query's annotation-span queries
//                 (docs/trace-query.md).
//   --quick       reduced-iteration mode for CI (small scale, 4 threads)
//   --audit       attach the trace/reenact oracle to every run and fail
//                 on any commit the validator cannot re-derive — for
//                 DATM that includes re-deriving every forwarding chain
//                 (zero skipped chains required)
//   --shards N    run with N event-queue shards (see
//                 docs/architecture.md; results are bit-identical for
//                 any N, which --audit re-proves commit by commit)
//   --mem-banks N run with N directory banks (contention unmodeled:
//                 like --shards, results are bit-identical for any N
//                 and --audit re-proves it commit by commit)
//   --backoff P   NACK/abort retry backoff policy for every run
//                 (none|linear|exp — htm::BackoffConfig,
//                 docs/tuning.md). Non-none policies change timing
//                 only; validation and the audit must stay green,
//                 and the `backoff` column reports the total extra
//                 delay imposed across the row's configs.
//   --clusters N  run every workload on an N-cluster fleet
//                 (docs/fleet.md): nthreads/shards/mem-banks become
//                 per-cluster sizes, commit-token arbitration engages
//                 (the two-level commit protocol needs tokens), and
//                 the sweep fails unless the fleet actually exercised
//                 the wire — cross-cluster token waits and interconnect
//                 messages must both be nonzero.
//   --xc-fraction F  fraction of service requests routed to a remote
//                 cluster's state (default 0.25 when --clusters > 1;
//                 ignored at one cluster).
//   --jobs N      run the independent sweep cells (each a full
//                 api::runOnce) on an N-thread pool (default 1, which
//                 runs them inline). Each run stays single-threaded, so
//                 every number printed is bit-identical for any N
//                 (docs/run-level-parallelism.md); only the wall-ms
//                 column and the sweep wall line change. Output is
//                 buffered per row and printed in canonical workload
//                 order.
//
// Every numeric argument must parse whole (a count as a non-negative
// integer): non-numeric input or trailing garbage prints usage and
// exits 1, and so do --jobs 0, an unknown --backoff policy and a size
// the machine cannot hold (nthreads 1..64, --shards 1..nthreads,
// --mem-banks 1..64, clusters x nthreads and clusters x banks <= 64).
// Sizes are never clamped.
//   --trace-out PREFIX  stream every audited cell's complete record
//                 stream live to PREFIX_<workload>_<config>.rtt
//                 (docs/trace-format.md; requires --audit), then
//                 re-validate each file incrementally with the
//                 windowed validator (query::validateStreamFile) and
//                 fail unless its verdict matches the in-memory audit
//                 field for field and its resident state stayed
//                 bounded by open attempts. Files are removed after a
//                 clean validation unless --trace-keep is given.
//   --trace-keep  keep the streamed .rtt files on disk (for the CI
//                 corruption negative control and manual
//                 retcon-query sessions).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/datm_envelope.hpp"
#include "api/metrics.hpp"
#include "api/runner.hpp"
#include "query/replay.hpp"
#include "scenario/scenario.hpp"

using namespace retcon;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--audit] [--shards N] [--mem-banks N]\n"
        "          [--backoff none|linear|exp] [--clusters N]\n"
        "          [--xc-fraction F] [--jobs N]\n"
        "          [--annotate-phases] [--trace-out PREFIX]\n"
        "          [--trace-keep] [--scenario NAME|all]\n"
        "          [--list-scenarios] [scale] [nthreads] [workload]\n",
        argv0);
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Parse all of @p s into @p out. Unlike atoi/atof, non-numeric input,
 * a sign on a count, and trailing garbage all fail: a typo must never
 * silently reshape the sweep.
 */
template <class T>
bool
parseExact(const char *s, T &out)
{
    const char *end = s + std::strlen(s);
    auto [p, ec] = std::from_chars(s, end, out);
    return ec == std::errc() && p == end && p != s;
}

/** Metrics-table rows (api/metrics.hpp) summed over runs, by name. */
using Totals = std::map<std::string, double>;

void
addRun(Totals &totals, const api::RunResult &r)
{
    for (const api::Metric &m : api::metrics())
        totals[m.name] += m.get(r);
}

/** One summed counter row, for printing; unknown names throw. */
unsigned long long
count(const Totals &totals, const char *name)
{
    return static_cast<unsigned long long>(totals.at(name));
}

/** One (workload, config) run slot, filled by whichever thread. */
struct Cell {
    bool supported = true;
    api::RunResult r;
    double wallMs = 0.0;
    /// Streamed-trace leg (--trace-out): windowed re-validation of
    /// the live .rtt file, which must agree with the in-memory audit.
    bool streamOk = true;
    std::string streamNote;
    std::uint64_t streamPeakOpen = 0;
};

/** "RetCon" -> "retcon", "lazy-vb" -> "lazy-vb": filename-safe. */
std::string
labelSlug(const char *label)
{
    std::string s;
    for (const char *p = label; *p; ++p)
        s += std::isalnum(static_cast<unsigned char>(*p))
                 ? static_cast<char>(
                       std::tolower(static_cast<unsigned char>(*p)))
                 : '-';
    return s;
}

/**
 * Stream-validate one cell's .rtt file and score it against the live
 * run: verdict parity, zero skipped chains, and resident validator
 * state bounded by the core count (the windowed-validation memory
 * contract, docs/trace-format.md).
 */
void
checkStreamedCell(Cell &cell, const std::string &path,
                  unsigned total_cores, bool keep)
{
    query::StreamValidateResult v = query::validateStreamFile(path);
    cell.streamPeakOpen = v.replay.peakOpenAttempts;
    if (!v.streamOk) {
        cell.streamOk = false;
        cell.streamNote = v.error;
        return;
    }
    if (v.recordsRead != cell.r.traceStream.records) {
        cell.streamOk = false;
        cell.streamNote =
            "read " + std::to_string(v.recordsRead) + " of " +
            std::to_string(cell.r.traceStream.records) +
            " streamed records";
        return;
    }
    // Field-for-field verdict parity: the streamed file is the complete
    // dense record stream, so every audit counter (the reenact.* rows
    // of the metrics table), not just the verdict, must agree.
    api::RunResult windowed = cell.r;
    windowed.reenact = v.replay.report;
    if (std::string row = api::firstDifference(windowed, cell.r);
        !row.empty()) {
        cell.streamOk = false;
        cell.streamNote = "windowed " + row +
                          " diverged from the live audit (windowed: " +
                          v.replay.report.summary() +
                          "; live: " + cell.r.reenact.summary() + ")";
        return;
    }
    if (v.replay.peakOpenAttempts > total_cores) {
        cell.streamOk = false;
        cell.streamNote =
            "resident state unbounded: peak " +
            std::to_string(v.replay.peakOpenAttempts) +
            " open attempts on " + std::to_string(total_cores) +
            " cores";
        return;
    }
    if (!keep)
        std::remove(path.c_str());
}

/** One output row: the sequential baseline plus every config cell. */
struct Row {
    std::string name;
    Cycle seq = 0;
    double seqWallMs = 0.0;
    std::vector<Cell> cells;
};

/**
 * Run @p tasks to completion on @p threads host threads (1 runs them
 * inline, in order, with zero threading machinery). Tasks are
 * independent full simulations; each writes only its own result slot.
 */
void
runTasks(std::vector<std::function<void()>> &tasks, unsigned threads)
{
    if (threads == 1) {
        for (auto &t : tasks)
            t();
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&tasks, &next] {
        for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();)
            tasks[i]();
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads && t < tasks.size(); ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool audit = false;
    bool annotate_phases = false;
    unsigned shards = 1;
    unsigned banks = 1;
    unsigned clusters = 1;
    unsigned jobs = 1;
    double xc_fraction = -1.0; // < 0: default per cluster count.
    htm::BackoffPolicy backoff = htm::BackoffPolicy::None;
    const char *trace_out = nullptr;
    bool trace_keep = false;
    const char *scenario_arg = nullptr;
    double scale = 0.25;
    unsigned nthreads = 8;
    const char *only = nullptr;

    // The first malformed numeric argument, as a message (parseExact).
    std::string bad;
    auto num = [&bad](const char *what, const char *arg, auto &out) {
        if (!parseExact(arg, out))
            bad = std::string(what) + ": '" + arg + "' is not a number";
    };
    auto flagNum = [&](int &i, auto &out) {
        if (i + 1 >= argc) {
            bad = std::string(argv[i]) + " requires a number";
        } else {
            num(argv[i], argv[i + 1], out);
            ++i;
        }
    };

    int positional = 0;
    for (int i = 1; i < argc && bad.empty(); ++i) {
        if (std::strcmp(argv[i], "--list-scenarios") == 0) {
            for (const scenario::Scenario &s : scenario::registry())
                std::printf("%-16s %s\n", s.name, s.description);
            return 0;
        } else if (std::strcmp(argv[i], "--scenario") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--scenario requires a name or 'all'\n");
                return 1;
            }
            scenario_arg = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--audit") == 0) {
            audit = true;
        } else if (std::strcmp(argv[i], "--annotate-phases") == 0) {
            // Per-phase user-mark annotations in the service workload
            // (request-range quarters); audit-stream-only, so rows are
            // unchanged. Anchors retcon-query's span queries.
            annotate_phases = true;
        } else if (std::strcmp(argv[i], "--shards") == 0) {
            flagNum(i, shards);
        } else if (std::strcmp(argv[i], "--mem-banks") == 0) {
            flagNum(i, banks);
        } else if (std::strcmp(argv[i], "--clusters") == 0) {
            flagNum(i, clusters);
        } else if (std::strcmp(argv[i], "--xc-fraction") == 0) {
            flagNum(i, xc_fraction);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            flagNum(i, jobs);
            if (bad.empty() && jobs == 0)
                bad = "--jobs must be at least 1";
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--trace-out requires a path prefix\n");
                return 1;
            }
            trace_out = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-keep") == 0) {
            trace_keep = true;
        } else if (std::strcmp(argv[i], "--backoff") == 0) {
            const char *policy = i + 1 < argc ? argv[++i] : "";
            if (!htm::backoffPolicyFromName(policy, backoff))
                bad = std::string("--backoff: unknown policy '") +
                      policy + "' (none|linear|exp)";
        } else if (argv[i][0] == '-' && argv[i][1] == '-') {
            // An unrecognized --flag must never be silently consumed
            // as a positional (a typo would quietly change the sweep).
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            usage(argv[0]);
            return 1;
        } else if (positional == 0) {
            num("scale", argv[i], scale);
            ++positional;
        } else if (positional == 1) {
            num("nthreads", argv[i], nthreads);
            ++positional;
        } else if (positional == 2) {
            only = argv[i];
            ++positional;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
            usage(argv[0]);
            return 1;
        }
    }
    // --quick sets CI-sized defaults but never overrides explicitly
    // supplied scale/nthreads.
    if (quick && positional == 0) {
        scale = 0.05;
        nthreads = 4;
    } else if (quick && positional == 1) {
        nthreads = 4;
    }
    if (bad.empty()) {
        api::RunConfig sizes;
        sizes.nthreads = nthreads;
        sizes.shards = shards;
        sizes.memBanks = banks;
        sizes.clusters = clusters;
        bad = api::sizeError(sizes,
                             {"nthreads", "--shards", "--mem-banks",
                              "--clusters"});
    }
    if (!bad.empty()) {
        std::fprintf(stderr, "%s\n", bad.c_str());
        usage(argv[0]);
        return 1;
    }
    if (xc_fraction < 0.0)
        xc_fraction = clusters > 1 ? 0.25 : 0.0;
    if (trace_out && !audit) {
        // The streamed leg's whole check is verdict parity with the
        // in-memory audit; without one there is nothing to compare.
        std::fprintf(stderr, "--trace-out requires --audit\n");
        return 1;
    }
    std::vector<std::string> scenario_names;
    if (scenario_arg) {
        if (only) {
            std::fprintf(stderr,
                         "--scenario fixes the workload to 'service'; "
                         "drop the workload argument\n");
            return 1;
        }
        if (std::strcmp(scenario_arg, "all") == 0) {
            for (const scenario::Scenario &s : scenario::registry())
                scenario_names.push_back(s.name);
        } else if (scenario::scenarioByName(scenario_arg) != nullptr) {
            scenario_names.push_back(scenario_arg);
        } else {
            std::fprintf(stderr,
                         "unknown scenario '%s' (--list-scenarios "
                         "prints the registry)\n",
                         scenario_arg);
            return 1;
        }
    }

    if (shards > 1)
        std::printf("event queue sharded %u ways\n", shards);
    if (banks > 1)
        std::printf("directory banked %u ways\n", banks);
    if (clusters > 1)
        std::printf("fleet: %u clusters (%u cores, %u banks each), "
                    "xc-fraction %.2f\n",
                    clusters, nthreads, banks, xc_fraction);
    if (backoff != htm::BackoffPolicy::None)
        std::printf("retry backoff: %s\n",
                    htm::backoffPolicyName(backoff));
    if (trace_out)
        std::printf("trace stream: %s_<workload>_<config>.rtt, "
                    "windowed re-validation%s\n",
                    trace_out, trace_keep ? ", files kept" : "");

    // Lay the whole sweep out as independent tasks (one per sequential
    // baseline, one per config cell), run them on the --jobs pool,
    // then print rows in canonical order from the filled slots.
    auto configs = api::paperConfigs();
    htm::TMConfig datm = api::eagerConfig();
    datm.mode = htm::TMMode::DATM;
    configs.push_back({"datm", datm});

    std::vector<Row> rows;
    std::vector<std::function<void()>> tasks;
    if (scenario_arg) {
        // Scenario mode: each row is one registered scenario driving
        // the service workload; the row name is the scenario name.
        std::printf("scenario sweep: %zu scenario%s x service "
                    "workload\n",
                    scenario_names.size(),
                    scenario_names.size() == 1 ? "" : "s");
        for (const std::string &sn : scenario_names)
            rows.push_back(Row{sn, 0, 0.0,
                               std::vector<Cell>(configs.size())});
    } else {
        for (const auto &name : workloads::extendedWorkloadNames()) {
            if (only && name != only)
                continue;
            rows.push_back(Row{name, 0, 0.0,
                               std::vector<Cell>(configs.size())});
        }
    }
    if (rows.empty()) {
        std::fprintf(stderr, "no workload matched '%s'\n",
                     only ? only : "");
        return 1;
    }
    for (Row &row : rows) {
        api::RunConfig base;
        base.workload = scenario_arg ? "service" : row.name;
        if (scenario_arg)
            base.scenario = row.name;
        base.nthreads = nthreads;
        base.scale = scale;
        base.shards = shards;
        base.memBanks = banks;
        base.clusters = clusters;
        base.crossClusterFraction = xc_fraction;
        base.trace.enabled = audit;
        base.annotatePhases = annotate_phases;
        tasks.push_back([&row, base] {
            auto t0 = std::chrono::steady_clock::now();
            row.seq = api::sequentialCycles(base);
            row.seqWallMs = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        });
        for (std::size_t k = 0; k < configs.size(); ++k) {
            Cell &cell = row.cells[k];
            if (configs[k].tm.mode == htm::TMMode::DATM &&
                !api::datmSupported(base.workload, scale, clusters)) {
                cell.supported = false;
                continue;
            }
            api::RunConfig cfg = base;
            cfg.tm = configs[k].tm;
            cfg.tm.backoff.policy = backoff;
            // The two-level commit protocol is the fleet's whole
            // point: remote bank tokens must cross the wire, so
            // arbitration is always modeled on a fleet.
            if (clusters > 1)
                cfg.tm.commitTokenArbitration = true;
            std::string stream_path;
            if (trace_out) {
                stream_path = std::string(trace_out) + "_" + row.name +
                              "_" + labelSlug(configs[k].label) +
                              ".rtt";
                cfg.trace.streamPath = stream_path;
            }
            const unsigned total_cores = nthreads * clusters;
            tasks.push_back([&cell, cfg, stream_path, total_cores,
                             trace_keep] {
                auto t0 = std::chrono::steady_clock::now();
                cell.r = api::runOnce(cfg);
                cell.wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                // Re-validate the streamed file inside the task so the
                // windowed replay overlaps other cells on the pool.
                if (!stream_path.empty())
                    checkStreamedCell(cell, stream_path, total_cores,
                                      trace_keep);
            });
        }
    }

    auto sweep0 = std::chrono::steady_clock::now();
    runTasks(tasks, jobs);
    double sweep_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sweep0)
                               .count();

    std::printf("%-18s %10s | %8s %8s %8s %8s | %10s | %8s | ok\n",
                "workload", "seq-cyc", "eager", "lazy-vb", "retcon",
                "datm", "backoff", "wall-ms");
    bool all_ok = true;
    Totals sweep; // Every run cell of the sweep.
    std::uint64_t stream_peak_open = 0;
    for (const Row &row : rows) {
        std::string line;
        appendf(line, "%-18s %10llu |", row.name.c_str(),
                (unsigned long long)row.seq);
        bool ok = true;
        Totals sum; // This row's run cells.
        std::uint64_t peak_backlog = 0;
        double row_wall_ms = row.seqWallMs;
        for (const Cell &cell : row.cells) {
            if (!cell.supported) {
                appendf(line, " %8s", "-");
                continue;
            }
            const api::RunResult &r = cell.r;
            double speedup = double(row.seq) / double(r.cycles);
            appendf(line, " %8.2f", speedup);
            if (!r.validation.ok) {
                ok = false;
                appendf(line, "(INVALID: %s)",
                        r.validation.note.c_str());
            }
            if (audit && !r.reenact.ok()) {
                ok = false;
                appendf(line, "(AUDIT: %s)",
                        r.reenact.summary().c_str());
            }
            if (trace_out && !cell.streamOk) {
                ok = false;
                appendf(line, "(STREAM: %s)", cell.streamNote.c_str());
            }
            const api::ScenarioSummary &s = r.scenario;
            if (s.injected != s.completed + s.dropped) {
                ok = false;
                appendf(line,
                        " (ARRIVAL LEDGER: %llu injected != %llu "
                        "completed + %llu dropped)",
                        (unsigned long long)s.injected,
                        (unsigned long long)s.completed,
                        (unsigned long long)s.dropped);
            }
            addRun(sum, r);
            addRun(sweep, r);
            stream_peak_open = std::max(stream_peak_open,
                                        cell.streamPeakOpen);
            peak_backlog = std::max(peak_backlog, s.peakBacklog);
            row_wall_ms += cell.wallMs;
        }
        std::string scen_note;
        if (scenario_arg) {
            // Engagement checks: re-derive the row's plan (setup is a
            // pure function of the env) and fail the sweep if any
            // declared scenario mechanism never fired — a vacuous
            // scenario passing silently is the failure mode this
            // sweep exists to catch.
            const scenario::Scenario *sc =
                scenario::scenarioByName(row.name);
            scenario::Plan plan;
            scenario::Env env;
            const api::RunConfig defaults; // sweep keeps the default seed
            env.seed = defaults.seed;
            env.scale = scale;
            env.nthreads = nthreads * clusters;
            env.clusters = clusters;
            sc->setup(plan, env);
            if (plan.arrival.open()) {
                appendf(scen_note,
                        "  arrivals: %llu injected, %llu completed, "
                        "%llu dropped, peak backlog %llu, mean wait "
                        "%.1f cyc\n",
                        count(sum, "scenario.injected"),
                        count(sum, "scenario.completed"),
                        count(sum, "scenario.dropped"),
                        (unsigned long long)peak_backlog,
                        sum.at("scenario.completed")
                            ? sum.at("scenario.latency_sum") /
                                  sum.at("scenario.completed")
                            : 0.0);
                if (count(sum, "scenario.injected") == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: open-loop "
                                  "arrivals never injected)");
                }
            }
            if (plan.shift.phases > 1 &&
                count(sum, "scenario.phase_marks") == 0) {
                ok = false;
                appendf(line, " (SCENARIO VACUOUS: no phase shift "
                              "annotations)");
            }
            if (plan.fault.coreStall) {
                appendf(scen_note,
                        "  core stall: %llu windows, %llu cycles\n",
                        count(sum, "scenario.stall_hits"),
                        count(sum, "scenario.stall_cycles"));
                if (count(sum, "scenario.stall_hits") == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: core-stall "
                                  "fault never fired)");
                }
            }
            if (plan.fault.bankSlow) {
                appendf(scen_note,
                        "  bank fault: %llu stalls, %llu cycles\n",
                        count(sum, "scenario.bank_fault_stalls"),
                        count(sum, "scenario.bank_fault_cycles"));
                if (count(sum, "scenario.bank_fault_cycles") == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: bank fault "
                                  "never fired)");
                }
            }
            if (plan.fault.linkDegrade && clusters > 1) {
                appendf(scen_note,
                        "  link fault: %llu messages, %llu extra "
                        "cycles\n",
                        count(sum, "scenario.link_fault_messages"),
                        count(sum, "scenario.link_fault_cycles"));
                if (count(sum, "scenario.link_fault_messages") == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: link fault "
                                  "never touched a message)");
                }
            }
        }
        const unsigned long long backoff_cycles =
            count(sum, "htm.backoff_cycles");
        if (backoff == htm::BackoffPolicy::None && backoff_cycles != 0) {
            // The off switch must really be off (bit-identical runs).
            appendf(line, " (BACKOFF LEAK)");
            ok = false;
        }
        appendf(line, " | %10llu | %8.1f | %s\n", backoff_cycles,
                row_wall_ms,
                ok ? "yes" : "NO");
        std::fputs(line.c_str(), stdout);
        if (!scen_note.empty())
            std::fputs(scen_note.c_str(), stdout);
        all_ok = all_ok && ok;
    }
    if (clusters > 1) {
        std::printf("fleet: %llu cross-cluster token waits, %llu net "
                    "messages, %llu net queue cycles\n",
                    count(sweep, "htm.xc_token_waits"),
                    count(sweep, "net.messages"),
                    count(sweep, "net.queue_cycles"));
        if (count(sweep, "net.messages") == 0) {
            std::printf("FAIL: a multi-cluster sweep never crossed "
                        "the interconnect\n");
            all_ok = false;
        }
        if (!only && xc_fraction > 0.0 &&
            count(sweep, "htm.xc_token_waits") == 0) {
            std::printf("FAIL: no commit ever waited on a remote "
                        "bank token — the two-level commit protocol "
                        "was vacuous\n");
            all_ok = false;
        }
    }
    if (audit) {
        const unsigned long long chains_validated =
            count(sweep, "reenact.forwarded_commits_checked");
        const unsigned long long chains_skipped =
            count(sweep, "reenact.forwarded_commits_skipped");
        std::printf("audit: %llu datm-forwarded commits re-derived "
                    "(%llu forward links), %llu skipped\n",
                    chains_validated,
                    count(sweep, "reenact.forwards_checked"),
                    chains_skipped);
        if (chains_skipped > 0) {
            std::printf("FAIL: %llu forwarding chains escaped the "
                        "audit\n",
                        chains_skipped);
            all_ok = false;
        }
        // The chain audit can only be vacuous if a DATM cell actually
        // ran: a sweep whose every DATM point sits outside the support
        // envelope (e.g. scenarios at full scale) has no chains to
        // re-derive by construction.
        bool datm_ran = false;
        for (const Row &row : rows)
            for (std::size_t k = 0; k < configs.size(); ++k)
                if (configs[k].tm.mode == htm::TMMode::DATM &&
                    row.cells[k].supported)
                    datm_ran = true;
        if (!only && datm_ran && chains_validated == 0) {
            std::printf("FAIL: no forwarded commits were re-derived — "
                        "the DATM chain audit was vacuous\n");
            all_ok = false;
        }
    }
    if (trace_out) {
        // Writer overhead in the existing bench-JSON spirit: bytes on
        // disk, amortized frame cost, and host-side flush stalls
        // (docs/trace-format.md). Peak open attempts is the windowed
        // validator's resident-state bound, checked per cell above.
        const double records = sweep.at("trace.stream_records");
        std::printf("trace stream: %llu records, %llu bytes "
                    "(%.1f bytes/record), %llu flushes, %.1f "
                    "flush-stall ms, peak %llu open attempts\n",
                    count(sweep, "trace.stream_records"),
                    count(sweep, "trace.stream_bytes"),
                    records ? sweep.at("trace.stream_bytes") / records
                            : 0.0,
                    count(sweep, "trace.flushes"),
                    sweep.at("trace.flush_wall_ms"),
                    (unsigned long long)stream_peak_open);
        if (records == 0) {
            std::printf("FAIL: --trace-out streamed zero records — "
                        "the windowed validation was vacuous\n");
            all_ok = false;
        }
    }
    std::printf("sweep wall: %.0f ms on %u job%s\n", sweep_wall_ms, jobs,
                jobs > 1 ? "s" : "");
    return all_ok ? 0 : 1;
}
