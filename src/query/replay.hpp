/**
 * @file
 * Offline reenactment: run the ReenactmentValidator over a recorded
 * stream with no live cluster attached.
 *
 * The live validator reads architectural memory at commit-drain time;
 * offline there is no memory to read, so this module *reconstructs*
 * it from the stream itself:
 *
 *  - words are **seeded on first observation** — a `load`/`sym-load`
 *    carries the value read, `freeze`/`pin` the validated input
 *    value, `forward` the delivered word;
 *  - `store` records apply eagerly (the machine's eager modes write
 *    memory in place) with a per-attempt undo log, rolled back when
 *    the attempt aborts — consecutive `abort` records (a DATM
 *    cascade) roll back as one merged, newest-first unwind, exactly
 *    as the machine does;
 *  - `repair` records apply the commit-time drain — undo-logged like
 *    eager stores, because the machine logs drain writes too and an
 *    abort after a partial drain restores them.
 *
 * Replaying in seq order therefore presents the validator the same
 * memory values the live run did, and a complete stream (no record
 * missing) must validate offline exactly as it did live — the
 * property that makes what-if's variant streams checkable
 * (src/api/whatif, docs/what-if.md).
 */

#ifndef RETCON_QUERY_REPLAY_HPP
#define RETCON_QUERY_REPLAY_HPP

#include <memory>
#include <string>
#include <vector>

#include "trace/reenact.hpp"

namespace retcon::query {

/** Outcome of one offline replay. */
struct ReplayResult {
    trace::ReenactReport report;
    /** Words first observed (seeded) during the replay. */
    std::uint64_t seededWords = 0;
    /**
     * Reads of words the stream never revealed (returned as 0).
     * Nonzero means the stream was windowed/wrapped — mismatches may
     * be artifacts of the missing prefix rather than real divergence.
     */
    std::uint64_t unknownReads = 0;
    /**
     * Most attempts ever simultaneously holding resident log state.
     * This is the windowed validator's memory bound: per-attempt
     * state retires at commit/abort, so the peak is capped by the
     * core count, never the run length (docs/trace-format.md).
     */
    std::uint64_t peakOpenAttempts = 0;
};

/**
 * Incremental (windowed) offline reenactment: feed records one at a
 * time in ascending seq order and read the verdict at the end.
 * Verdict-identical to replayValidate on the same records — that
 * function is this class run over a vector — but never needs the
 * whole trace resident: memory reconstruction holds one value per
 * observed word (workload footprint), and the validator's attempt
 * logs retire at commit/abort, so resident state is bounded by open
 * attempts rather than run length. The consumption path for .rtt
 * streams (trace::StreamReader + docs/trace-format.md).
 */
class StreamingReplay
{
  public:
    StreamingReplay();
    ~StreamingReplay();
    StreamingReplay(const StreamingReplay &) = delete;
    StreamingReplay &operator=(const StreamingReplay &) = delete;

    /** Consume one record (records must ascend in seq). */
    void onRecord(const trace::Record &r);

    /** Attempts currently holding resident validator state. */
    std::size_t openAttempts() const;

    /** Flush pending abort cascades and return the verdict. */
    ReplayResult finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

/** Replay @p recs (ascending seq) through a fresh validator. */
ReplayResult replayValidate(const std::vector<trace::Record> &recs);

/** Outcome of validating an .rtt stream end to end. */
struct StreamValidateResult {
    /** Stream read cleanly: no checksum/seq/truncation faults. */
    bool streamOk = false;
    /** First fault's offset-precise diagnostic when !streamOk. */
    std::string error;
    std::uint64_t recordsRead = 0;
    ReplayResult replay;

    bool ok() const { return streamOk && replay.report.ok(); }
};

/**
 * Validate a streamed .rtt trace incrementally: strict StreamReader
 * feeding StreamingReplay record at a time, so neither the records
 * nor the validator state ever grow with trace length. Stops at the
 * first integrity fault (a corrupted stream must not be scored).
 */
StreamValidateResult validateStreamFile(const std::string &path);

} // namespace retcon::query

#endif // RETCON_QUERY_REPLAY_HPP
