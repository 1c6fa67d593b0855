/**
 * @file
 * Streaming trace format (.rtt) throughput and overhead bench
 * (docs/trace-format.md). Two legs:
 *
 *  1. **Codec throughput** — a synthetic, deterministically generated
 *     record stream is written through trace::StreamWriter and read
 *     back through trace::readStreamFile, timing both directions. This
 *     isolates the frame encode/CRC/decode cost from any simulation:
 *     records/sec here is the ceiling a live run can stream at. Every
 *     record read back must equal the one written, field by field.
 *
 *  2. **Writer overhead in vivo** — the audited service workload runs
 *     twice, untraced and streamed to disk. The stream sink rides the
 *     live record feed, so the simulated result must be bit-identical
 *     (cycles are asserted equal; streaming that perturbs the
 *     simulation is a correctness bug, not an overhead); the delta in
 *     host wall plus the writer's own flush-stall accounting is the
 *     full cost of recording.
 *
 * JSON fields split into the two tolerance regimes of
 * tools/check_bench_regression.py: bytes_per_record and the service
 * record/byte counts are deterministic (two-sided sim band), the
 * records/sec rates are host-time (wide one-sided band), and
 * cycles_identical must simply be true.
 *
 * Usage: trace_stream [--quick] [--json PATH]
 *   --quick      CI sizing (fewer synthetic records, Table-1 service
 *                sizing — matching service_scalability --quick)
 *   --json PATH  write the measurements as BENCH_trace_stream.json
 * Environment: RETCON_SCALE / RETCON_THREADS as in bench_common.hpp.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "query/replay.hpp"
#include "trace/stream.hpp"

using namespace retcon;
using namespace retcon::bench;

namespace {

constexpr std::size_t kSynthRecordsFull = 2'000'000;
constexpr std::size_t kSynthRecordsQuick = 250'000;

/** xorshift64: deterministic synthetic field filler. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/**
 * A dense synthetic stream shaped like a real trace: every kind
 * appears, symbolic tags (some negative-delta) ride the symbolic
 * kinds, and every payload is legal (the reader decode-validates).
 */
std::vector<trace::Record>
makeSyntheticRecords(std::size_t n)
{
    std::vector<trace::Record> recs;
    recs.reserve(n);
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < n; ++i) {
        trace::Record r;
        r.seq = i + 1;
        r.cycle = i / 4;
        r.core = static_cast<CoreId>(nextRand(s) % 32);
        r.kind = static_cast<trace::EventKind>(
            nextRand(s) %
            (static_cast<std::uint64_t>(trace::EventKind::UserMark) +
             1));
        r.addr = nextRand(s) & 0xFFFFF8;
        r.a = nextRand(s);
        r.b = nextRand(s);
        r.vid = nextRand(s) % (i + 1);
        if (r.kind == trace::EventKind::SymStore ||
            r.kind == trace::EventKind::SymLoad ||
            r.kind == trace::EventKind::Repair) {
            r.hasSym = true;
            r.sym.root = r.addr;
            r.sym.delta =
                static_cast<std::int64_t>(nextRand(s) % 64) - 32;
        }
        if (r.kind == trace::EventKind::Constraint)
            r.cmp = static_cast<rtc::CmpOp>(
                nextRand(s) %
                (static_cast<std::uint64_t>(rtc::CmpOp::GT) + 1));
        r.aux = r.kind == trace::EventKind::Abort
                    ? static_cast<std::uint8_t>(
                          nextRand(s) %
                          (static_cast<std::uint64_t>(
                               htm::AbortCause::Zombie) +
                           1))
                    : 0;
        recs.push_back(r);
    }
    return recs;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
recsPerSec(std::size_t n, double ms)
{
    return ms > 0.0 ? 1000.0 * double(n) / ms : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a path\n");
                return 1;
            }
            json_path = argv[++i];
        }
    }

    printHeader("Streaming trace format: codec throughput + overhead",
                "docs/trace-format.md (not a paper figure)");

    bool all_ok = true;

    // ---- Leg 1: synthetic codec throughput ---------------------------
    const std::size_t n =
        quick ? kSynthRecordsQuick : kSynthRecordsFull;
    const char *rtt = "trace_stream_bench.rtt";
    std::vector<trace::Record> recs = makeSyntheticRecords(n);

    auto t0 = std::chrono::steady_clock::now();
    {
        trace::StreamWriter writer(rtt);
        for (const trace::Record &r : recs)
            writer.onEvent(r);
        writer.close();
    }
    double write_ms = msSince(t0);

    // The read leg checks every record against the one written, field
    // by field: a lossy codec must fail here, not only look fast.
    std::size_t read_index = 0;
    std::size_t mismatches = 0;
    std::size_t first_mismatch = 0;
    t0 = std::chrono::steady_clock::now();
    trace::StreamReadResult read = trace::readStreamFile(
        rtt, [&](const trace::Record &r) {
            if (read_index >= n ||
                !trace::recordsIdentical(r, recs[read_index])) {
                if (mismatches++ == 0)
                    first_mismatch = read_index;
            }
            ++read_index;
        });
    double read_ms = msSince(t0);
    std::remove(rtt);

    const std::uint64_t file_bytes =
        trace::kStreamHeaderBytes + n * trace::kFrameBytes;
    double bytes_per_record = double(file_bytes) / double(n);
    double write_rate = recsPerSec(n, write_ms);
    double read_rate = recsPerSec(n, read_ms);
    std::printf("codec: %zu records, %llu bytes (%.1f B/rec)\n", n,
                (unsigned long long)file_bytes, bytes_per_record);
    std::printf("  write: %7.1f ms  %10.0f recs/s  %7.1f MB/s\n",
                write_ms, write_rate,
                write_rate * bytes_per_record / 1e6);
    std::printf("  read:  %7.1f ms  %10.0f recs/s  %7.1f MB/s\n",
                read_ms, read_rate,
                read_rate * bytes_per_record / 1e6);
    if (!read.ok || read.records != n) {
        std::printf("!! read back %llu of %zu records (%s)\n",
                    (unsigned long long)read.records, n,
                    read.ok ? "no fault" : read.error.c_str());
        all_ok = false;
    }
    if (mismatches != 0) {
        std::printf("!! %zu read-back records differ from the written "
                    "ones (first: record %zu)\n",
                    mismatches, first_mismatch);
        all_ok = false;
    }

    // ---- Leg 2: writer overhead on the audited service workload -----
    api::RunConfig base = baseConfig("service");
    base.tm = api::retconConfig();
    base.trace.enabled = true; // Audit rides both runs identically.
    base.trace.validate = true;
    if (quick) {
        base.scale = 1.0; // Table-1 sizing, as service_scalability.
        base.nthreads = 32;
    }

    api::RunResult untraced = api::runOnce(base);
    flagInvalid(untraced, "service");
    all_ok = all_ok && untraced.validation.ok && untraced.reenact.ok();

    api::RunConfig traced_cfg = base;
    traced_cfg.trace.streamPath = rtt;
    api::RunResult traced = api::runOnce(traced_cfg);
    flagInvalid(traced, "service");
    all_ok = all_ok && traced.validation.ok && traced.reenact.ok();

    bool cycles_identical = traced.cycles == untraced.cycles;
    if (!cycles_identical) {
        std::printf("!! streaming perturbed the simulation: %llu "
                    "cycles traced vs %llu untraced\n",
                    (unsigned long long)traced.cycles,
                    (unsigned long long)untraced.cycles);
        all_ok = false;
    }

    // And the streamed file must actually validate incrementally —
    // the windowed validator agreeing with the live audit is the
    // product this bench prices (docs/trace-format.md).
    query::StreamValidateResult v = query::validateStreamFile(rtt);
    if (!v.ok() || v.recordsRead != traced.traceStream.records) {
        std::printf("!! streamed run failed windowed validation: %s\n",
                    v.streamOk ? v.replay.report.summary().c_str()
                               : v.error.c_str());
        all_ok = false;
    }
    std::remove(rtt);

    const api::TraceStreamSummary &ws = traced.traceStream;
    std::printf("service (%u cores, scale %.2f): %llu records -> "
                "%llu bytes, %llu flushes, %.1f ms flush stall\n",
                base.nthreads, base.scale,
                (unsigned long long)ws.records,
                (unsigned long long)ws.bytesWritten,
                (unsigned long long)ws.flushes, ws.flushWallMs);
    std::printf("  host wall: %.1f ms traced vs %.1f ms untraced; "
                "cycles %s\n",
                traced.hostWallMs,
                untraced.hostWallMs,
                cycles_identical ? "identical" : "DIVERGED");

    if (json_path) {
        std::FILE *f = std::fopen(json_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path);
            return 1;
        }
        std::fprintf(
            f,
            "{\"bench\":\"trace_stream\",\"synthetic_records\":%zu,"
            "\"bytes_per_record\":%.2f,"
            "\"write_recs_per_sec\":%.0f,\"read_recs_per_sec\":%.0f,"
            "\"service\":{\"scale\":%g,\"nthreads\":%u,"
            "\"records\":%llu,\"bytes_written\":%llu,"
            "\"flushes\":%llu,\"flush_wall_ms\":%.2f,"
            "\"traced_host_wall_ms\":%.2f,"
            "\"untraced_host_wall_ms\":%.2f},"
            "\"cycles_identical\":%s}\n",
            n, bytes_per_record, write_rate, read_rate, base.scale,
            base.nthreads, (unsigned long long)ws.records,
            (unsigned long long)ws.bytesWritten,
            (unsigned long long)ws.flushes, ws.flushWallMs,
            traced.hostWallMs, untraced.hostWallMs,
            cycles_identical ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }

    if (!all_ok) {
        std::printf("FAIL\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
