/**
 * @file
 * Provenance event vocabulary for the trace/audit subsystem.
 *
 * Every record describes one observable step of a transaction's
 * lifecycle on the shared TM machine, at the granularity the RETCON
 * repair rules operate on (words for values, blocks for tracking).
 * Together the records of one attempt form a symbolic log that is
 * sufficient to *reenact* the transaction's commit: re-evaluate every
 * symbolic store and recorded constraint against the architectural
 * memory and check that the machine's repaired commit wrote exactly
 * the values the log implies (see trace/reenact.hpp).
 */

#ifndef RETCON_TRACE_EVENT_HPP
#define RETCON_TRACE_EVENT_HPP

#include <cstdint>

#include "htm/types.hpp"
#include "retcon/interval.hpp"
#include "retcon/symbolic.hpp"
#include "sim/types.hpp"

namespace retcon::trace {

/** What happened. One enumerator per instrumentation point. */
enum class EventKind : std::uint8_t {
    TxBegin,     ///< Transaction (re)started; a = timestamp,
                 ///< b = attempt uid.
    Load,        ///< Concrete load; addr = byte address, a = value.
    SymLoad,     ///< Symbolic load; addr, a = value, sym = root+delta.
    Store,       ///< Eager (non-symbolic) store; addr, a = value,
                 ///< b = resulting word value, vid = write seq.
    Forward,     ///< DATM forwarded-data load: the value came from
                 ///< another in-flight transaction's speculative
                 ///< store; addr = word, a = delivered word value,
                 ///< b = producer attempt uid, vid = value-id of the
                 ///< producing store (its machine-global write seq).
    SymStore,    ///< SSB insert/update; addr = word, a = concrete, sym.
    Freeze,      ///< Tracked word input fixed by a local eager store;
                 ///< addr = word, a = validated pre-store value.
    Pin,         ///< Degrade to value validation (§4.2 equality pin);
                 ///< addr = root word, a = required initial value.
    Constraint,  ///< Interval constraint recorded; addr = root word,
                 ///< a = rhs (as signed), cmp = operator.
    BlockLost,   ///< Tracked block stolen mid-transaction; addr = block.
    CommitStart, ///< Commit process entered. With commit-token
                 ///< arbitration modeled, token acquisition happens
                 ///< after this record — TokenWait records for the
                 ///< same attempt may follow it.
    TokenWait,   ///< Commit stalled on a directory-bank commit token;
                 ///< addr = bank index, a = holding core, b = the
                 ///< full bank mask the commit needs. Emitted once per
                 ///< NACKed acquisition attempt; informational for the
                 ///< validator (token waits carry no value flow).
    CommitDrain, ///< Pre-commit walk done, all tracked blocks
                 ///< reacquired and protected; the SSB drain begins.
    Repair,      ///< Commit-time repaired store; addr = word,
                 ///< a = memory value before, b = value written, sym =
                 ///< the symbolic value that produced b (hasSym).
    Commit,      ///< Transaction committed.
    Abort,       ///< Transaction aborted; aux = htm::AbortCause,
                 ///< addr = blamed block (0 when no block is to
                 ///< blame, e.g. constraint violations).
    UserMark,    ///< Workload annotation via WorkerCtx; a = mark id.
};

/** Short stable name (used by the JSON view and reports). */
const char *eventKindName(EventKind k);

/**
 * Commit-record aux bit: the committing transaction consumed a value
 * forwarded from another in-flight transaction (DATM). Each such
 * consumption also emitted a Forward record naming the producing
 * attempt and store, so the reenactment validator re-derives the
 * whole forwarding chain at commit instead of trusting architectural
 * memory (docs/trace-format.md).
 */
inline constexpr std::uint8_t kCommitAuxDatmForwarded = 0x1;

/** One fixed-size trace record (POD; cheap to buffer in bulk). */
struct Record {
    Cycle cycle = 0;
    CoreId core = 0;
    EventKind kind = EventKind::TxBegin;
    Addr addr = 0;           ///< Word/block/byte address (see kind).
    Word a = 0;              ///< Primary value.
    Word b = 0;              ///< Secondary value (Repair: written).
    rtc::SymTag sym{};       ///< Symbolic tag, when hasSym.
    bool hasSym = false;
    rtc::CmpOp cmp = rtc::CmpOp::EQ; ///< Constraint operator.
    std::uint8_t aux = 0;    ///< AbortCause, or per-kind flag bits.
    /// Machine-global emission order. Same-cycle records from
    /// different cores (and therefore different shard recorders)
    /// merge deterministically on this key.
    std::uint64_t seq = 0;
    /// Value-id: the machine-global write sequence of the store this
    /// record performs (Store) or consumes (Forward). Matches a
    /// Forward record to the exact producing store so forwarding
    /// chains re-derive without ambiguity; 0 for other kinds.
    std::uint64_t vid = 0;
};

/**
 * Field-by-field equality (Records are PODs with padding, so memcmp
 * is not reliable). The bit-identity currency of the what-if engine
 * and the determinism tests.
 */
inline bool
recordsIdentical(const Record &x, const Record &y)
{
    return x.cycle == y.cycle && x.core == y.core && x.kind == y.kind &&
           x.addr == y.addr && x.a == y.a && x.b == y.b &&
           x.hasSym == y.hasSym &&
           (!x.hasSym || (x.sym.root == y.sym.root &&
                          x.sym.delta == y.sym.delta &&
                          x.sym.size == y.sym.size)) &&
           x.cmp == y.cmp && x.aux == y.aux && x.seq == y.seq &&
           x.vid == y.vid;
}

} // namespace retcon::trace

#endif // RETCON_TRACE_EVENT_HPP
