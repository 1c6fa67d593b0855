// retcon-query: interrogate a recorded provenance trace, or re-run a
// recorded configuration with one knob changed and see exactly how far
// the change reached (docs/trace-query.md, docs/what-if.md).
//
// Usage:
//   retcon-query <trace.rtt> stats
//   retcon-query <trace.rtt> timeline <block-addr>
//   retcon-query <trace.rtt> blame <attempt-uid | mark:<id>>
//   retcon-query <trace.rtt> diff <commit-seq>
//   retcon-query <trace.rtt> dump
//   retcon-query whatif [run options] [--set knob=value]...
//   retcon-query smoke
//
// <trace.rtt> is a framed .rtt stream (docs/trace-format.md), loaded
// strictly: any other content, or a corrupted stream, fails with an
// offset-precise diagnostic. `dump` prints it as JSON Lines, one
// object per record. Addresses accept 0x-prefixed hex.
//
// whatif run options (the recorded base configuration):
//   --workload W  (default service)   --nthreads N  (default 8)
//   --seed S      (default 1)         --scale F     (default 0.1)
//   --partitions P (service state partitions, default 1)
//   --annotate-phases  (service phase marks, default off)
// Each --set knob=value is one change; see api::applyKnob for the
// knob vocabulary. With no --set the variant is the base itself and
// the report must show a bit-identical run with no reachable record —
// the determinism self-check. A bad run-option value exits 2.
//
// smoke: self-contained CI check — record a quick contended service
// run streamed to .rtt and captured in memory, reload the file,
// exercise every query surface and the dump view, then run both
// whatif proofs (no-change bit-identity and a conflict-class change
// that diverges no earlier than it can reach). Exits nonzero on any
// failure.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/whatif.hpp"
#include "query/index.hpp"
#include "query/loader.hpp"
#include "query/replay.hpp"
#include "trace/export.hpp"

using namespace retcon;

namespace {

bool
parseAddr(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 0); // Base 0: accepts 0x... and dec.
    return errno == 0 && end != s && *end == '\0';
}

void
printRecord(const trace::Record &r)
{
    std::printf("  seq %-8" PRIu64 " cyc %-10" PRIu64
                " core %-3u %-13s addr 0x%" PRIx64 " a %" PRIu64
                " b %" PRIu64,
                r.seq, r.cycle, r.core, trace::eventKindName(r.kind),
                r.addr, r.a, r.b);
    if (r.hasSym)
        std::printf(" sym[0x%" PRIx64 "%+" PRId64 "]", r.sym.root,
                    r.sym.delta);
    if (r.kind == trace::EventKind::Abort)
        std::printf(" cause=%s",
                    htm::abortCauseName(
                        static_cast<htm::AbortCause>(r.aux)));
    std::printf("\n");
}

int
cmdStats(const query::TraceIndex &idx)
{
    query::TraceStats st = idx.stats();
    std::printf("records   %" PRIu64 "  (cycles %" PRIu64 "..%" PRIu64
                ")\n",
                st.records, st.firstCycle, st.lastCycle);
    std::printf("attempts  %" PRIu64 "  commits %" PRIu64
                "  aborts %" PRIu64 "  repairs %" PRIu64
                "  forwards %" PRIu64 "  marks %" PRIu64 "\n",
                st.attempts, st.commits, st.aborts, st.repairs,
                st.forwards, st.marks);
    for (int c = 0; c < 10; ++c)
        if (st.abortsByCause[c] != 0)
            std::printf("  aborts[%s] %" PRIu64 "\n",
                        htm::abortCauseName(
                            static_cast<htm::AbortCause>(c)),
                        st.abortsByCause[c]);
    std::printf("blocks    %" PRIu64 " touched", st.distinctBlocks);
    if (!st.hotBlocks.empty()) {
        std::printf("; hottest:");
        for (std::size_t i = 0; i < st.hotBlocks.size() && i < 5; ++i)
            std::printf(" 0x%" PRIx64 "(%" PRIu64 ")",
                        st.hotBlocks[i].first, st.hotBlocks[i].second);
    }
    std::printf("\n");
    std::printf("overlaps  %" PRIu64 "; first interaction ",
                st.overlaps);
    if (idx.reach().contention == trace::kSeqUnreached)
        std::printf("none\n");
    else
        std::printf("seq %" PRIu64 "\n", idx.reach().contention);
    return 0;
}

int
cmdTimeline(const query::TraceIndex &idx, const char *arg)
{
    std::uint64_t block = 0;
    if (!parseAddr(arg, block)) {
        std::fprintf(stderr, "timeline: bad block address '%s'\n", arg);
        return 2;
    }
    auto tl = idx.blockTimeline(block);
    std::printf("block 0x%" PRIx64 ": %zu records\n", blockAddr(block),
                tl.size());
    for (const query::TimelineEntry &e : tl) {
        const trace::Record &r = idx.records()[e.recordIdx];
        std::printf("[uid %-6" PRIu64 "]", e.uid);
        printRecord(r);
    }
    return tl.empty() ? 1 : 0;
}

int
blameOne(const query::TraceIndex &idx, std::uint64_t uid)
{
    auto chain = idx.blameChain(uid);
    if (chain.empty()) {
        std::printf("attempt %" PRIu64
                    ": no abort recorded (nothing to blame)\n",
                    uid);
        return 1;
    }
    for (const query::BlameLink &l : chain) {
        std::printf("attempt %" PRIu64 " aborted (%s)", l.uid,
                    htm::abortCauseName(
                        static_cast<htm::AbortCause>(l.cause)));
        if (l.block != 0)
            std::printf(" on block 0x%" PRIx64, l.block);
        if (l.winnerUid != 0)
            std::printf(" -> lost to attempt %" PRIu64, l.winnerUid);
        std::printf("\n");
    }
    return 0;
}

int
cmdBlame(const query::TraceIndex &idx, const char *arg)
{
    if (std::strncmp(arg, "mark:", 5) == 0) {
        std::uint64_t mark = 0;
        if (!parseAddr(arg + 5, mark)) {
            std::fprintf(stderr, "blame: bad mark id '%s'\n", arg + 5);
            return 2;
        }
        auto spans = idx.spansForMark(mark);
        if (spans.empty()) {
            std::printf("mark %" PRIu64
                        ": no annotation spans in this trace\n",
                        mark);
            return 1;
        }
        std::printf("mark %" PRIu64 ": %zu spans\n", mark,
                    spans.size());
        auto uids = idx.abortsUnderMark(mark);
        if (uids.empty()) {
            std::printf("  no aborts under this mark\n");
            return 0;
        }
        for (std::uint64_t uid : uids)
            blameOne(idx, uid);
        return 0;
    }
    std::uint64_t uid = 0;
    if (!parseAddr(arg, uid)) {
        std::fprintf(stderr, "blame: bad attempt uid '%s'\n", arg);
        return 2;
    }
    return blameOne(idx, uid);
}

int
cmdDiff(const query::TraceIndex &idx, const char *arg)
{
    std::uint64_t seq = 0;
    if (!parseAddr(arg, seq)) {
        std::fprintf(stderr, "diff: bad commit seq '%s'\n", arg);
        return 2;
    }
    auto diff = idx.commitDiff(seq);
    if (!diff) {
        std::printf("seq %" PRIu64 ": no committed attempt there\n",
                    seq);
        return 1;
    }
    std::uint64_t uid = idx.attemptAtSeq(seq);
    std::printf("commit of attempt %" PRIu64 ": %zu repaired words\n",
                uid, diff->size());
    for (const query::RepairDelta &d : *diff) {
        std::printf("  word 0x%" PRIx64 ": %" PRIu64 " -> %" PRIu64,
                    d.word, d.before, d.after);
        if (d.symbolic)
            std::printf("  (sym 0x%" PRIx64 "%+" PRId64 ")",
                        d.sym.root, d.sym.delta);
        std::printf("\n");
    }
    return 0;
}

/** JSON Lines view: one object per record. */
void
dumpJson(const std::vector<trace::Record> &recs, std::ostream &os)
{
    for (const trace::Record &r : recs) {
        trace::writeJsonRecord(r, os);
        os << '\n';
    }
}

void
printWhatIf(const api::WhatIfResult &w)
{
    std::printf("reach     %s", api::reachClassName(w.reach));
    if (w.firstReachableSeq == trace::kSeqUnreached)
        std::printf(" (no reachable record)");
    else
        std::printf(" (first reachable seq %" PRIu64 ")",
                    w.firstReachableSeq);
    std::printf(", proof %s\n", w.reachHeld ? "held" : "VIOLATED");
    if (w.bitIdentical) {
        std::printf("result    bit-identical (%zu records)\n",
                    w.recorded.size());
    } else {
        std::printf("result    diverged at seq %" PRIu64
                    " (recorded %zu records, variant %zu)\n",
                    w.firstDivergentSeq, w.recorded.size(),
                    w.variant.size());
        std::printf("          %zu blocks changed activity",
                    w.blockDeltas.size());
        for (std::size_t i = 0; i < w.blockDeltas.size() && i < 5; ++i)
            std::printf("  0x%" PRIx64 "%+" PRId64,
                        w.blockDeltas[i].first, w.blockDeltas[i].second);
        std::printf("\n");
    }
    std::printf("reenact   %s (%" PRIu64 " words seeded, %" PRIu64
                " unknown reads)\n",
                w.reenact.report.ok() ? "clean" : "MISMATCH",
                w.reenact.seededWords, w.reenact.unknownReads);
}

int
cmdWhatIf(int argc, char **argv)
{
    api::RunConfig base;
    base.workload = "service";
    base.nthreads = 8;
    base.scale = 0.1;
    base.trace.enabled = true;
    // Base run options, each validated as the knob it names.
    struct BaseFlag {
        const char *flag;
        const char *knob;
    };
    static const BaseFlag kBaseFlags[] = {
        {"--workload", "workload"},
        {"--nthreads", "nthreads"},
        {"--seed", "seed"},
        {"--scale", "scale"},
        {"--partitions", "servicePartitions"},
    };
    std::vector<api::KnobChange> changes;
    for (int i = 0; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        const BaseFlag *baseFlag = nullptr;
        for (const BaseFlag &f : kBaseFlags)
            if (std::strcmp(argv[i], f.flag) == 0)
                baseFlag = &f;
        if (baseFlag) {
            const char *v = need(baseFlag->flag);
            if (!api::applyKnob(base, baseFlag->knob, v)) {
                std::fprintf(stderr, "whatif: bad %s value '%s'\n",
                             baseFlag->flag, v);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--annotate-phases") == 0) {
            base.annotatePhases = true;
        } else if (std::strcmp(argv[i], "--set") == 0) {
            std::string kv = need("--set");
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "--set wants knob=value, got '%s'\n",
                             kv.c_str());
                return 2;
            }
            changes.push_back({kv.substr(0, eq), kv.substr(eq + 1)});
        } else {
            std::fprintf(stderr, "whatif: unknown option '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    api::WhatIfResult w = api::runWhatIf(base, changes);
    if (!w.ok) {
        std::fprintf(stderr, "whatif: %s\n", w.error.c_str());
        return 2;
    }
    printWhatIf(w);
    return w.reachHeld && w.reenact.report.ok() ? 0 : 1;
}

/**
 * Self-contained CI smoke: every surface of the product on a freshly
 * recorded run, with hard assertions instead of eyeballs.
 */
int
cmdSmoke()
{
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        std::printf("%-52s %s\n", what, ok ? "ok" : "FAIL");
        if (!ok)
            ++failures;
    };

    // 1. Record a quick contended service run with phase marks.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.1;
    cfg.tm = api::retconConfig();
    cfg.annotatePhases = true;
    cfg.trace.enabled = true;
    cfg.trace.streamPath = "query_smoke_trace.rtt";
    std::vector<trace::Record> recorded;
    cfg.trace.captureInto = &recorded;
    api::RunResult r = api::runOnce(cfg);
    check(r.validation.ok, "recorded run validates");
    check(r.reenact.ok(), "recorded run audits clean");
    check(!recorded.empty() && recorded.size() == r.traceEvents,
          "capture holds every record of the run");

    // 2. The streamed .rtt file loads back bit-for-bit as the capture,
    //    and the dump view renders one JSON line per record.
    query::LoadResult loaded =
        query::loadTraceFile("query_smoke_trace.rtt");
    if (!loaded.ok)
        std::fprintf(stderr, "  load error: %s\n", loaded.error.c_str());
    check(loaded.ok, "streamed .rtt loads");
    bool identical = loaded.records.size() == recorded.size();
    for (std::size_t i = 0; identical && i < recorded.size(); ++i)
        identical = trace::recordsIdentical(loaded.records[i],
                                            recorded[i]);
    check(identical, "file round-trip is bit-identical");
    std::ostringstream dump;
    dumpJson(loaded.records, dump);
    std::size_t lines = 0;
    for (char c : dump.str())
        lines += c == '\n';
    check(lines == recorded.size(), "dump emits one line per record");

    // 3. Query surfaces on the loaded trace.
    query::TraceIndex idx(std::move(loaded.records));
    query::TraceStats st = idx.stats();
    check(st.attempts > 0 && st.commits > 0, "stats sees attempts");
    check(st.marks > 0, "phase annotations present");
    check(!idx.spansForMark(1).empty(), "mark 1 has spans");
    check(idx.spansForMark(9999).empty(), "absent mark is a miss");
    bool timelineOk = false;
    if (!st.hotBlocks.empty())
        timelineOk = !idx.blockTimeline(st.hotBlocks[0].first).empty();
    check(timelineOk, "hottest block has a timeline");
    bool blameOk = st.aborts == 0;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.aborted)
            continue;
        blameOk = !idx.blameChain(uid).empty();
        break;
    }
    check(blameOk, "an aborted attempt blames a chain");
    bool diffOk = false;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.committed || at.repairs == 0)
            continue;
        auto d = idx.commitDiff(at.endSeq);
        diffOk = d && !d->empty();
        break;
    }
    check(diffOk, "a repaired commit has a diff");
    query::ReplayResult rep = idx.records().empty()
                                  ? query::ReplayResult{}
                                  : query::replayValidate(idx.records());
    check(rep.report.ok(), "offline reenactment is clean");

    // 4. whatif, no change: the determinism self-check.
    api::WhatIfResult same = api::runWhatIf(cfg, {});
    check(same.ok && same.bitIdentical, "no-change whatif bit-identical");
    check(same.firstReachableSeq == trace::kSeqUnreached,
          "no-change whatif reaches no record");
    check(same.reachHeld, "no-change reach proof holds");
    check(same.reenact.report.ok(), "no-change reenactment clean");

    // 5. whatif, conflict-class change: divergence must start at or
    //    after the first cross-attempt interaction, and the variant
    //    stream must reenact. A conflict-free recording would make the
    //    claim vacuous, so require the interaction to exist.
    api::WhatIfResult diff =
        api::runWhatIf(cfg, {{"backoff", "exp"}});
    check(diff.ok, "backoff whatif runs");
    check(diff.firstReachableSeq != trace::kSeqUnreached,
          "recording has a first interaction");
    check(diff.reachHeld, "backoff reach proof holds");
    check(!diff.diverged ||
              diff.firstDivergentSeq >= diff.firstReachableSeq,
          "divergence respects the reach bound");
    check(diff.reenact.report.ok(), "variant stream reenacts clean");

    std::remove("query_smoke_trace.rtt");
    std::printf("query smoke: %s\n",
                failures == 0 ? "all checks passed" : "FAILURES");
    return failures == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: retcon-query <trace.rtt> stats\n"
        "       retcon-query <trace.rtt> timeline <block-addr>\n"
        "       retcon-query <trace.rtt> blame <uid | mark:<id>>\n"
        "       retcon-query <trace.rtt> diff <commit-seq>\n"
        "       retcon-query <trace.rtt> dump\n"
        "       retcon-query whatif [options] [--set knob=value]...\n"
        "       retcon-query smoke\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "smoke") == 0)
        return cmdSmoke();
    if (std::strcmp(argv[1], "whatif") == 0)
        return cmdWhatIf(argc - 2, argv + 2);

    if (argc < 3)
        return usage();
    const char *path = argv[1];
    const char *cmd = argv[2];
    query::LoadResult loaded = query::loadTraceFile(path);
    if (!loaded.ok) {
        std::fprintf(stderr, "%s\n", loaded.error.c_str());
        return 2;
    }
    if (std::strcmp(cmd, "dump") == 0) {
        dumpJson(loaded.records, std::cout);
        return std::cout.flush() ? 0 : 1;
    }
    query::TraceIndex idx(std::move(loaded.records));

    if (std::strcmp(cmd, "stats") == 0)
        return cmdStats(idx);
    if (std::strcmp(cmd, "timeline") == 0 && argc >= 4)
        return cmdTimeline(idx, argv[3]);
    if (std::strcmp(cmd, "blame") == 0 && argc >= 4)
        return cmdBlame(idx, argv[3]);
    if (std::strcmp(cmd, "diff") == 0 && argc >= 4)
        return cmdDiff(idx, argv[3]);
    return usage();
}
