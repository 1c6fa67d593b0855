/**
 * @file
 * What-if reenactment: re-execute a recorded run with one (or a few)
 * changed knobs and report exactly how far the change reached
 * (docs/what-if.md).
 *
 * The engine leans on two properties the rest of the repo already
 * enforces:
 *
 *  1. **Determinism** — a RunConfig reproduces its provenance stream
 *     bit-for-bit (tests/unit/test_query, test_scenario), so
 *     "replay the run" is just `runOnce` again and divergence between
 *     the recorded and variant streams is attributable to the knob
 *     change alone.
 *
 *  2. **Bounded reach** — each knob is classified by the earliest
 *     machine step it can possibly perturb (ReachClass). A
 *     backoff policy only acts when a NACK or abort happens; the
 *     query index of the recorded stream (query/index.hpp) names the
 *     first seq where any cross-attempt interaction exists, so no
 *     record before that seq may differ in the variant. The engine
 *     checks this instead of assuming it: the first divergent record
 *     must lie at or after the first reachable one.
 *
 * The variant stream is then validated offline (query/replay.hpp): it
 * must reenact cleanly, a check independent of the live audit.
 */

#ifndef RETCON_API_WHATIF_HPP
#define RETCON_API_WHATIF_HPP

#include <string>
#include <vector>

#include "api/runner.hpp"
#include "query/replay.hpp"

namespace retcon::api {

/**
 * How early in a recorded stream a knob change can possibly take
 * effect. Ordered weakest to strongest; a multi-knob change takes the
 * strongest class among its knobs.
 */
enum class ReachClass : std::uint8_t {
    /** Host-side only (shards, memBanks without occupancy): the
     *  simulated stream is bit-identical by contract, nothing is
     *  reachable. */
    Nothing,
    /** Acts only where attempts interact (backoff, scheduling,
     *  commit-token arbitration, bank occupancy, shard bandwidth):
     *  first reachable record = the first-interaction frontier. */
    Conflicts,
    /** Acts only on commit-time repaired stores (repair fault
     *  injection): first reachable record = first `repair`. */
    Repairs,
    /** Acts only on DATM forwarded values: first reachable record =
     *  first `forward`. */
    Forwards,
    /** Changes the program itself (seed, workload, nthreads, scale,
     *  tm.mode, partitioning): everything is reachable. */
    Everything,
};

const char *reachClassName(ReachClass c);

/** One knob change, by name (see applyKnob for the vocabulary). */
struct KnobChange {
    std::string knob;
    std::string value;
};

/** Reach classification of one knob name (Everything if unknown —
 *  the sound default: never under-estimate reach). */
ReachClass classifyKnob(const std::string &knob);

/**
 * Apply one knob change to @p cfg. Supported knobs:
 *
 *   seed, workload, nthreads, scale, servicePartitions, clusters,
 *   crossClusterFraction, tm.mode (serial|eager|lazy|lazy-vb|
 *   retcon|datm)                                    -> Everything
 *   backoff (none|linear|exp|prop), contentionSched (0|1),
 *   commitTokenArbitration (0|1), memBankOccupancy,
 *   shardBandwidth                                  -> Conflicts
 *   faultInjectRepairXor                            -> Repairs
 *   faultInjectForwardXor                           -> Forwards
 *   shards, memBanks                                -> Nothing
 *
 * @return false (cfg untouched) on unknown knob or unparseable value.
 */
bool applyKnob(RunConfig &cfg, const std::string &knob,
               const std::string &value);

/** Everything one what-if reenactment produces. */
struct WhatIfResult {
    bool ok = false;       ///< False: see error (bad knob, no trace).
    std::string error;

    /** The two full streams. */
    std::vector<trace::Record> recorded;
    std::vector<trace::Record> variant;

    /** Reach classification of the change set. */
    ReachClass reach = ReachClass::Everything;
    /** First seq the change could reach (kSeqUnreached = none). */
    std::uint64_t firstReachableSeq = trace::kSeqUnreached;
    /**
     * The reach proof, checked rather than assumed: the streams are
     * identical or first differ at or after firstReachableSeq. False
     * would mean a knob was misclassified.
     */
    bool reachHeld = true;

    /** Recorded vs variant, record-by-record. */
    bool bitIdentical = false;
    bool diverged = false;
    /** Recorded-stream seq of the first differing record
     *  (kSeqUnreached when bitIdentical). */
    std::uint64_t firstDivergentSeq = trace::kSeqUnreached;

    /** Per-block record-count delta (variant - recorded), only
     *  blocks whose counts differ, sorted by |delta| descending. */
    std::vector<std::pair<Addr, std::int64_t>> blockDeltas;

    /** Offline reenactment of the variant stream. */
    query::ReplayResult reenact;

    /** Full run outcomes for downstream comparison. */
    RunResult baseResult;
    RunResult variantResult;
};

/**
 * Record @p base (tracing forced on), apply @p changes, re-run, and
 * compare. Both runs capture their complete record streams through
 * TraceOptions::captureInto, however long the run; the rest of
 * @p base's trace options pass through to both runs unchanged.
 */
WhatIfResult runWhatIf(const RunConfig &base,
                       const std::vector<KnobChange> &changes);

} // namespace retcon::api

#endif // RETCON_API_WHATIF_HPP
