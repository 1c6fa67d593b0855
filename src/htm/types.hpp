/**
 * @file
 * Shared vocabulary types for the transactional memory machine.
 */

#ifndef RETCON_HTM_TYPES_HPP
#define RETCON_HTM_TYPES_HPP

#include <cstdint>
#include <optional>

#include "retcon/predictor.hpp"
#include "retcon/symbolic.hpp"
#include "sim/types.hpp"

namespace retcon::htm {

/** Concurrency-control mode of the machine (one mode per run). */
enum class TMMode : std::uint8_t {
    Serial,   ///< Transactions serialize on a global lock (no speculation).
    Eager,    ///< Baseline HTM: eager conflict detection + version mgmt.
    Lazy,     ///< TCC-style: buffered writes, committer-wins at commit.
    LazyVB,   ///< RETCON variant: value-based read validation, no repair.
    Retcon,   ///< Full RETCON: symbolic tracking + commit-time repair.
    DATM,     ///< Dependence-aware TM: speculative value forwarding.
};

/** Name string for reports. */
const char *tmModeName(TMMode m);

/** Contention-management policy for eager conflicts (§2). */
enum class CMPolicy : std::uint8_t {
    OldestWins,      ///< Timestamp policy: younger side aborts/stalls.
    RequesterLoses,  ///< Requester aborts itself (Figure 2c).
    RequesterWins,   ///< Holders abort (livelock-prone; for the ablation).
};

/** Lifecycle state of a core's current transaction. */
enum class TxStatus : std::uint8_t { Idle, Active, Committing };

/** Why a transaction aborted. */
enum class AbortCause : std::uint8_t {
    None,
    Conflict,            ///< Lost an eager conflict.
    ConstraintViolation, ///< RETCON commit-time check failed.
    LazyValidation,      ///< lazy-vb value mismatch at commit.
    LazyCommitter,       ///< Aborted by a lazy committer's write set.
    DatmCycle,           ///< Cyclic dependence (DATM).
    DatmCascade,         ///< Cascaded abort of a forwarded value (DATM).
    Overflow,            ///< Could not obtain the OneTM overflow token.
    Explicit,            ///< Workload-requested abort.
    Zombie,              ///< Doomed transaction exceeded the op bound.
};

const char *abortCauseName(AbortCause c);

/** Status of one machine operation as seen by the executing core. */
enum class OpStatus : std::uint8_t {
    Ok,        ///< Operation performed; continue after `latency`.
    Nack,      ///< Stalled by contention management; retry later.
    AbortSelf, ///< This core's transaction was aborted (already rolled
               ///< back); restart the transaction.
};

/** What a NACKed operation waits on (None unless status is Nack). */
enum class WaitOn : std::uint8_t {
    None,
    Conflict,      ///< An older or committing holder of the block.
    SerialLock,    ///< The Serial mode's global lock.
    OverflowToken, ///< OneTM's overflow serialization token.
    DatmPred,      ///< A DATM commit-order predecessor still running.
    LazyToken,     ///< TCC's single global commit token.
    BankTokens,    ///< An older holder of a directory-bank commit token.
};

/** Result of a load/store/begin operation. */
struct MemOpOutcome {
    OpStatus status = OpStatus::Ok;
    Cycle latency = 1;
    Word value = 0;
    std::optional<rtc::SymTag> sym;
    WaitOn wait = WaitOn::None;
};

/** Result of one pre-commit/commit step. */
struct CommitStepOutcome {
    OpStatus status = OpStatus::Ok;
    Cycle latency = 1;
    bool done = false;
    WaitOn wait = WaitOn::None;
};

/**
 * NACK/abort retry backoff policy. The baseline machine retries a
 * NACKed operation after a fixed 25 cycles and re-begins an aborted
 * transaction immediately — under heavy contention every loser
 * re-arrives in lockstep and loses again. A backoff policy adds a
 * growing extra delay so conflicting transactions de-phase.
 */
enum class BackoffPolicy : std::uint8_t {
    None,        ///< Fixed NACK retry, immediate restart (baseline).
    Linear,      ///< extra = base * streak, capped.
    ExpCapped,   ///< extra = base * 2^(streak-1), capped (binary
                 ///< exponential backoff).
};

const char *backoffPolicyName(BackoffPolicy p);

/** Parse a policy name ("none", "linear", "exp") into @p out;
 *  false (out untouched) on unknown names. */
bool backoffPolicyFromName(const char *name, BackoffPolicy &out);

/** NACK/abort backoff configuration (TMConfig::backoff). */
struct BackoffConfig {
    BackoffPolicy policy = BackoffPolicy::None;

    /// One backoff step, in cycles (the unit the policies scale).
    /// Deliberately gentle: rollback is zero-cycle in this machine,
    /// so retry waits beyond a few tens of cycles cost more than the
    /// wasted work they avoid (measured on the service mix —
    /// docs/tuning.md).
    Cycle base = 2;

    /// Upper bound on the extra delay of a single retry. The delay
    /// actually imposed is drawn uniformly from [extra/2, extra]
    /// (equal jitter) from a per-core xoshiro stream seeded by
    /// (seed, core): deterministic for a fixed seed, but different
    /// cores de-phase differently instead of re-colliding.
    Cycle cap = 64;

    /**
     * Seed of the per-core jitter streams. 0 (the default) means
     * "inherit the cluster seed" (exec::Cluster stamps it), so
     * RunConfig::seed alone reproduces a run bit-for-bit.
     */
    std::uint64_t seed = 0;
};

/**
 * Synthetic contention-blame key for a directory-bank commit token:
 * the contention scheduler's hot table is keyed by blamed address,
 * and token waits blame a bank rather than a block. The keys live at
 * the very top of the address space, far above any workload heap
 * (kTokenBlameBase marks the start of the range; bank is 0..63).
 */
inline constexpr Addr kTokenBlameBase = ~Addr(0) - 63;

constexpr Addr
tokenBlameKey(unsigned bank)
{
    return kTokenBlameBase + bank;
}

/** Machine configuration (Table 1 defaults). */
struct TMConfig {
    TMMode mode = TMMode::Eager;
    CMPolicy cmPolicy = CMPolicy::OldestWins;

    rtc::ConflictPredictor::Config predictor{};

    /// §5.3 idealized RETCON: no structure capacity limits,
    /// overlapped pre-commit reacquires, and commit-time stores that
    /// cost nothing (Lazy's drain still pays).
    bool idealized = false;

    /**
     * NACK/abort retry backoff. With the policy None (the default)
     * the machine reproduces the PR-4 behaviour bit-for-bit: a fixed
     * NACK retry delay, immediate restart after an abort. Any other
     * policy adds a growing, jittered extra delay per consecutive
     * NACK (and before restarting an aborted transaction), counted in
     * MachineStats::{backoffNacks, backoffRestarts, backoffCycles}.
     */
    BackoffConfig backoff{};

    /**
     * Model commit-token arbitration against the memory system's
     * directory banks: a commit must hold the commit token of every
     * bank its write set touches before it may enter the commit
     * protocol, so commits touching disjoint banks proceed in parallel
     * while same-bank commits serialize. Token conflicts resolve
     * oldest-wins (an older committer aborts a younger token holder;
     * a younger requester NACKs), which keeps every wait younger->older
     * and therefore deadlock-free. Off (the default) reproduces the
     * PR-3 implicit arbiter: acquisition always succeeds after the
     * fixed commit-token latency, making results independent of the
     * bank count. Lazy (TCC) mode keeps its single global commit token
     * either way. Its drain is undo-logged like every mode's, so a
     * committer aborted mid-drain (by a plain store to its write set)
     * rolls back the words it already wrote.
     */
    bool commitTokenArbitration = false;

    /**
     * Test-only fault injection: XORed into every commit-time repaired
     * store value before it is written. Nonzero values deliberately
     * corrupt repairs so the trace/reenact audit oracle can be shown
     * to catch them; must be 0 in real runs.
     */
    Word faultInjectRepairXor = 0;

    /**
     * Test-only fault injection for DATM: XORed into every forwarded
     * word value before it is delivered to the consuming transaction
     * (architectural memory keeps the producer's real value). Nonzero
     * values model a corrupted forwarding path; the trace/reenact
     * audit must catch the divergence when it re-derives the
     * forwarding chain at the consumer's commit. Must be 0 in real
     * runs.
     */
    Word faultInjectForwardXor = 0;
};

} // namespace retcon::htm

#endif // RETCON_HTM_TYPES_HPP
