#include "htm/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hpp"

namespace retcon::htm {

const char *
tmModeName(TMMode m)
{
    switch (m) {
      case TMMode::Serial: return "serial";
      case TMMode::Eager: return "eager";
      case TMMode::Lazy: return "lazy";
      case TMMode::LazyVB: return "lazy-vb";
      case TMMode::Retcon: return "retcon";
      case TMMode::DATM: return "datm";
    }
    return "?";
}

const char *
backoffPolicyName(BackoffPolicy p)
{
    switch (p) {
      case BackoffPolicy::None: return "none";
      case BackoffPolicy::Linear: return "linear";
      case BackoffPolicy::ExpCapped: return "exp";
    }
    return "?";
}

bool
backoffPolicyFromName(const char *name, BackoffPolicy &out)
{
    for (auto p : {BackoffPolicy::None, BackoffPolicy::Linear,
                   BackoffPolicy::ExpCapped}) {
        if (std::strcmp(name, backoffPolicyName(p)) == 0) {
            out = p;
            return true;
        }
    }
    return false;
}

const char *
abortCauseName(AbortCause c)
{
    switch (c) {
      case AbortCause::None: return "none";
      case AbortCause::Conflict: return "conflict";
      case AbortCause::ConstraintViolation: return "constraint-violation";
      case AbortCause::LazyValidation: return "lazy-validation";
      case AbortCause::LazyCommitter: return "lazy-committer";
      case AbortCause::DatmCycle: return "datm-cycle";
      case AbortCause::DatmCascade: return "datm-cascade";
      case AbortCause::Overflow: return "overflow";
      case AbortCause::Explicit: return "explicit";
      case AbortCause::Zombie: return "zombie";
    }
    return "?";
}

namespace {

/// Fixed machine latencies (cycles) of the Table 1 configuration.
constexpr Cycle kBeginLatency = 2;       ///< Transaction begin overhead.
constexpr Cycle kCommitTokenLatency = 2; ///< Baseline commit overhead.
constexpr Cycle kSerialLockLatency = 40; ///< Global-lock handoff (Serial).
constexpr Cycle kNackRetryCycles = 25;   ///< Base delay before a NACK retry.

/**
 * DATM cascade back-pressure (part of the DATM support envelope —
 * api/datm_envelope.hpp). A core whose transaction was killed by a
 * forwarding cascade delays its restart by
 * min(kCascadeBpCap, kCascadeBpBase << (streak - 1)) cycles, where
 * the streak counts consecutive cascade aborts since the core's last
 * commit. This breaks the retry storms that keep cascading workloads
 * from converging: re-launching every cascade member at once just
 * rebuilds the same dataflow chain and kills it again.
 */
constexpr Cycle kCascadeBpBase = 16;
constexpr Cycle kCascadeBpCap = 2048;

/** Extract a size-byte value at byte offset within a word. */
Word
extractBytes(Word w, unsigned byte_off, unsigned size)
{
    if (size >= 8)
        return w;
    Word mask = (Word(1) << (size * 8)) - 1;
    return (w >> (byte_off * 8)) & mask;
}

/** Overlay size bytes of value into w at byte offset. */
Word
overlayBytes(Word w, Word value, unsigned byte_off, unsigned size)
{
    if (size >= 8)
        return value;
    Word mask = ((Word(1) << (size * 8)) - 1) << (byte_off * 8);
    return (w & ~mask) | ((value << (byte_off * 8)) & mask);
}

bool
isFullWordAccess(Addr addr, unsigned size)
{
    return byteInWord(addr) == 0 && size == 8;
}

} // namespace

TMMachine::TMMachine(const SimClock &clock, mem::MemorySystem &ms,
                     const TMConfig &cfg)
    : _eq(clock), _ms(ms), _cfg(cfg), _predictor(cfg.predictor)
{
    _cores.reserve(ms.numCores());
    for (CoreId i = 0; i < ms.numCores(); ++i)
        _cores.push_back(std::make_unique<CoreTxState>(_cfg, i));
    _bankTokens.resize(ms.numBanks());
    _ms.setListener(this);
}

TMMachine::~TMMachine()
{
    _ms.setListener(nullptr);
}

void
TMMachine::audit(CoreId core, trace::EventKind kind, Addr addr, Word a,
                 Word b, const std::optional<rtc::SymTag> &sym,
                 rtc::CmpOp cmp, std::uint8_t aux, std::uint64_t vid)
{
    if (!_sink)
        return;
    trace::Record r;
    r.cycle = _eq.now();
    r.seq = _auditSeq++;
    r.core = core;
    r.kind = kind;
    r.addr = addr;
    r.a = a;
    r.b = b;
    if (sym) {
        r.sym = *sym;
        r.hasSym = true;
    }
    r.cmp = cmp;
    r.aux = aux;
    r.vid = vid;
    _sink->onEvent(r);
}

void
TMMachine::userMark(CoreId core, Word id)
{
    audit(core, trace::EventKind::UserMark, 0, id);
}

std::uint64_t
TMMachine::effectiveTs(CoreId core, bool txnal) const
{
    if (!txnal)
        return 0;
    const CoreTxState &st = *_cores[core];
    if (st.overflowed)
        return 0;
    return st.timestamp;
}

void
TMMachine::touch(CoreId core, Addr block, bool write)
{
    Touchers &t = _touchers[block];
    if (!t.has(core))
        _cores[core]->touched.push_back(block);
    (write ? t.writers : t.readers) |= std::uint64_t(1) << core;
}

void
TMMachine::clearTouches(CoreId core)
{
    CoreTxState &st = *_cores[core];
    std::uint64_t keep = ~(std::uint64_t(1) << core);
    for (Addr block : st.touched) {
        auto it = _touchers.find(block);
        Touchers &t = it->second;
        t.readers &= keep;
        t.writers &= keep;
        for (; t.waiters; t.waiters &= t.waiters - 1)
            _onWaitRelease(static_cast<CoreId>(std::countr_zero(t.waiters)));
        if (!(t.readers | t.writers))
            _touchers.erase(it);
    }
    st.touched.clear();
}

bool
TMMachine::awaitRelease(CoreId core, bool sym_store)
{
    if (!_onWaitRelease || _cfg.backoff.policy != BackoffPolicy::None ||
        (sym_store && _cfg.mode == TMMode::Retcon))
        return false;
    auto it = _touchers.find(_cores[core]->lastNackBlock);
    sim_assert(it != _touchers.end(), "core %u waits on an untouched block",
               core);
    it->second.waiters |= std::uint64_t(1) << core;
    return true;
}

template <typename Fn>
void
TMMachine::forEachToucher(CoreId self, Addr block, bool with_readers,
                          Fn &&fn) const
{
    std::uint64_t others =
        self < 64 ? ~(std::uint64_t(1) << self) : ~std::uint64_t(0);
    auto candidates = [&](const Touchers &t) {
        return (t.writers | (with_readers ? t.readers : 0)) & others;
    };
    Touchers t = touchersOf(block);
    for (std::uint64_t left = candidates(t); left;) {
        auto c = static_cast<CoreId>(std::countr_zero(left));
        left &= left - 1;
        fn(c, (t.writers >> c) & 1, with_readers && ((t.readers >> c) & 1));
        if (left) {
            // A core that fn retired has no bits any more.
            t = touchersOf(block);
            left &= candidates(t);
        }
    }
}

TMMachine::ConflictInfo
TMMachine::findConflicts(CoreId requester, Addr block, bool is_write) const
{
    ConflictInfo info;
    bool requester_txnal =
        requester != kNoCore && _cores[requester]->active();
    bool requester_committing =
        requester_txnal &&
        _cores[requester]->status == TxStatus::Committing;
    std::uint64_t req_ts =
        requester == kNoCore ? 0 : effectiveTs(requester, requester_txnal);
    forEachToucher(requester, block, is_write,
                   [&](CoreId c, bool, bool) {
        info.holders |= std::uint64_t(1) << c;
        // Commit priority: a transaction that reached its commit
        // point is logically serialized; requesters wait for it
        // rather than aborting it (deadlock-free: committers never
        // wait on active transactions, and committer-vs-committer
        // falls back to timestamps).
        bool holder_committing =
            _cores[c]->status == TxStatus::Committing;
        bool holder_wins;
        if (holder_committing && !requester_committing)
            holder_wins = true;
        else if (!holder_committing && requester_committing)
            holder_wins = false;
        else
            holder_wins = effectiveTs(c, true) < req_ts;
        if (holder_wins)
            info.anyOlder = true;
    });
    return info;
}

OpStatus
TMMachine::resolveConflict(CoreId requester, bool requester_txnal,
                           Addr block, bool is_write, bool is_retry)
{
    ConflictInfo info = findConflicts(requester, block, is_write);
    if (!info.holders) {
        if (requester_txnal)
            _cores[requester]->lastNackBlock = static_cast<Addr>(-1);
        return OpStatus::Ok;
    }

    // Train the predictor once per request (not per NACK retry).
    bool fresh = !is_retry ||
                 (requester_txnal &&
                  _cores[requester]->lastNackBlock != block);
    if (fresh) {
        ++_stats.conflicts;
        _predictor.observeConflict(block);
    }

    CMPolicy policy = _cfg.cmPolicy;
    if (!requester_txnal && policy == CMPolicy::RequesterLoses) {
        // Non-transactional requests cannot abort; they win instead.
        policy = CMPolicy::RequesterWins;
    }

    switch (policy) {
      case CMPolicy::OldestWins:
        if (info.anyOlder) {
            ++_stats.nacks;
            if (requester_txnal)
                _cores[requester]->lastNackBlock = block;
            return OpStatus::Nack;
        }
        [[fallthrough]];
      case CMPolicy::RequesterWins:
        // In DATM, aborting one holder cascades to its dataflow
        // successors, which may be later holders.
        for (std::uint64_t m = info.holders; m; m &= m - 1) {
            auto c = static_cast<CoreId>(std::countr_zero(m));
            if (_cores[c]->active())
                doAbort(c, AbortCause::Conflict, true, block);
        }
        if (requester_txnal)
            _cores[requester]->lastNackBlock = static_cast<Addr>(-1);
        return OpStatus::Ok;

      case CMPolicy::RequesterLoses:
        doAbort(requester, AbortCause::Conflict, false, block);
        return OpStatus::AbortSelf;
    }
    return OpStatus::Ok;
}

void
TMMachine::doAbort(CoreId core, AbortCause cause, bool notify_exec,
                   Addr blame)
{
    sim_assert(_cores[core]->active(),
               "aborting an idle transaction on core %u", core);
    if (_cfg.mode == TMMode::DATM) {
        datmAbortCascade(core, cause, notify_exec, blame);
        return;
    }
    _cores[core]->undo.rollback(_ms.memory());
    retireAborted(core, cause, blame, notify_exec, /*cascade=*/false);
}

void
TMMachine::retireAborted(CoreId core, AbortCause cause, Addr blame,
                         bool notify, bool cascade)
{
    CoreTxState &st = *_cores[core];
    st.abortBlame = blame;
    ++st.abortStreak;
    st.nackStreak = 0;
    if (cascade)
        ++st.cascadeStreak;
    if (blame != 0 && _contention)
        _contention(core, blame);
    releaseTokens(core);
    clearTouches(core);
    st.resetSpeculation();
    ++_stats.aborts;
    ++_stats.abortsByCause[static_cast<int>(cause)];
    // The abort record carries the blamed block (0 when the abort has
    // no conflicting block, e.g. constraint violations): the same key
    // the contention scheduler heats, now queryable offline as a
    // blame chain (src/query/, docs/trace-query.md).
    audit(core, trace::EventKind::Abort, blame, 0, 0, std::nullopt,
          rtc::CmpOp::EQ, static_cast<std::uint8_t>(cause));
    if (notify && _onRemoteAbort)
        _onRemoteAbort(core, cause);
}

void
TMMachine::violationAbort(CoreId core, Addr block, bool value_mismatch)
{
    _predictor.observeViolation(block);
    if (value_mismatch)
        ++_stats.abortsLazyValueMismatch;
    doAbort(core, AbortCause::ConstraintViolation, false);
}

void
TMMachine::abortSelf(CoreId core, AbortCause cause)
{
    doAbort(core, cause, false);
}

// ---------------------------------------------------------------------
// DATM support
// ---------------------------------------------------------------------

bool
TMMachine::datmCreatesCycle(std::uint64_t pred_uid,
                            std::uint64_t succ_uid) const
{
    // Adding edge pred -> succ creates a cycle iff pred already
    // (transitively) depends on succ.
    std::vector<std::uint64_t> stack{pred_uid};
    std::vector<std::uint64_t> seen;
    while (!stack.empty()) {
        std::uint64_t u = stack.back();
        stack.pop_back();
        if (u == succ_uid)
            return true;
        if (std::find(seen.begin(), seen.end(), u) != seen.end())
            continue;
        seen.push_back(u);
        if (const CoreTxState *st = activeAttempt(u))
            for (const auto &[p, flags] : st->datmPreds)
                stack.push_back(p);
    }
    return false;
}

const CoreTxState *
TMMachine::activeAttempt(std::uint64_t uid) const
{
    for (const auto &st : _cores)
        if (st->active() && st->uid == uid)
            return st.get();
    return nullptr;
}

CoreId
TMMachine::findForwardProducer(CoreId reader, Addr word,
                               std::uint64_t &store_seq) const
{
    // Every DATM store indexes its machine-global write sequence in
    // the writer's datmStoreSeq, so the newest indexed store for
    // `word` across active transactions names the store whose value
    // the word currently holds (rollbacks restore pre-images in
    // reverse seq order, which makes the surviving max-seq store the
    // value owner even after a cascade unwinds interleaved writes).
    // If that store belongs to the reader itself the load observes
    // its own data; if no active transaction indexed the word, its
    // value is committed. Only the remaining case is a genuine value
    // forward. Attribution is word-granular, newest writer wins: when
    // several in-flight transactions hold sub-word stores inside one
    // word, only the newest is named (and a reader whose own store is
    // newest is not considered forwarded-to at all), so chains over
    // sub-word interleavings are audited only through the newest
    // writer — see the ROADMAP item on byte-granular attribution.
    // Block-level dependence edges (set by the caller) still order
    // every writer, so this limits audit coverage, not correctness.
    CoreId producer = kNoCore;
    std::uint64_t newest = 0;
    auto seqOf = [&](CoreId c) -> std::uint64_t {
        auto it = _cores[c]->datmStoreSeq.find(word);
        return it == _cores[c]->datmStoreSeq.end() ? 0 : it->second;
    };
    forEachToucher(reader, blockAddr(word), false,
                   [&](CoreId c, bool, bool) {
        std::uint64_t seq = seqOf(c);
        if (seq > newest) {
            newest = seq;
            producer = c;
        }
    });
    // Write sequence numbers are unique and nonzero, so the reader's
    // own store owns the value exactly when it is the newest.
    if (seqOf(reader) > newest)
        return kNoCore;
    store_seq = newest;
    return producer;
}

void
TMMachine::datmAbortCascade(CoreId core, AbortCause cause,
                            bool notify_exec, Addr blame)
{
    // Collect the initiating transaction plus every transitive
    // *dataflow* successor: transactions that consumed or overwrote a
    // member's speculative data must abort with it. Pure anti/output
    // ordering edges do not cascade.
    std::vector<CoreId> members{core};
    for (bool grew = true; grew;) {
        grew = false;
        for (CoreId c = 0; c < _ms.numCores(); ++c) {
            const CoreTxState &st = *_cores[c];
            if (!st.active() || std::find(members.begin(), members.end(),
                                          c) != members.end())
                continue;
            for (CoreId m : members) {
                auto it = st.datmPreds.find(_cores[m]->uid);
                if (it != st.datmPreds.end() && (it->second & 2)) {
                    members.push_back(c);
                    grew = true;
                    break;
                }
            }
        }
    }

    // Merge all undo entries and restore newest-first so interleaved
    // forwarded writes unwind in correct reverse order.
    std::vector<UndoEntry> entries;
    for (CoreId m : members) {
        const auto &log = _cores[m]->undo.entries();
        entries.insert(entries.end(), log.begin(), log.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const UndoEntry &a, const UndoEntry &b) {
                  return a.seq > b.seq;
              });
    for (const UndoEntry &e : entries)
        _ms.memory().writeWord(e.word, e.oldValue);

    for (CoreId m : members) {
        bool initiator = m == core;
        AbortCause c = initiator ? cause : AbortCause::DatmCascade;
        // Any multi-member cascade (or a dependence-cycle kill) bumps
        // every member's cascade streak: each one's restart will be
        // back-pressured so the chain doesn't instantly rebuild. A
        // plain single-transaction DATM abort is not a cascade.
        bool cascade = members.size() > 1 || c == AbortCause::DatmCycle ||
                       c == AbortCause::DatmCascade;
        retireAborted(m, c, initiator ? blame : 0,
                      !initiator || notify_exec, cascade);
    }
}

bool
TMMachine::datmOrderAfter(CoreId core, Addr block, bool is_write)
{
    CoreTxState &st = *_cores[core];
    bool survived = true;
    forEachToucher(core, block, is_write,
                   [&](CoreId h, bool wrote, bool) {
        if (!survived)
            return;
        const CoreTxState &hs = *_cores[h];
        if (hs.datmPreds.count(st.uid) ||
            datmCreatesCycle(hs.uid, st.uid)) {
            // Cyclic dependence: abort the younger (Figure 2b).
            if (hs.timestamp > st.timestamp) {
                doAbort(h, AbortCause::DatmCycle, true, block);
            } else {
                doAbort(core, AbortCause::DatmCycle, false, block);
                survived = false;
            }
            return;
        }
        // A writer's data flows into ours (a forwarded value, or our
        // write layered above theirs): dataflow. A pure reader before
        // our write is anti ordering only.
        st.datmPreds[hs.uid] |= wrote ? 2 : 1;
    });
    return survived;
}

// ---------------------------------------------------------------------
// Coherence listener
// ---------------------------------------------------------------------

void
TMMachine::onRemoteTake(CoreId victim, Addr block,
                        [[maybe_unused]] CoreId by, bool by_write)
{
    CoreTxState &st = *_cores[victim];
    if (!st.active())
        return;
    if (by_write) {
        if (rtc::IvbEntry *e = st.ivb.find(block)) {
            if (!e->lost) {
                e->lost = true;
                audit(victim, trace::EventKind::BlockLost, block);
            }
        }
        // Eagerly-protected blocks can only be taken after conflict
        // resolution has already aborted the holder (except in the
        // lazy/DATM modes, where takes are part of normal operation).
        if (_cfg.mode == TMMode::Eager || _cfg.mode == TMMode::LazyVB ||
            _cfg.mode == TMMode::Retcon) {
            sim_assert(!touchersOf(block).has(victim),
                       "speculative block 0x%llx stolen from core %u "
                       "without conflict resolution",
                       static_cast<unsigned long long>(block), victim);
        }
    }
}

void
TMMachine::onCapacityEvict(CoreId victim, Addr block)
{
    CoreTxState &st = *_cores[victim];
    if (!st.active())
        return;
    if (!touchersOf(block).has(victim))
        return;
    // Speculative bits survive in the permissions-only cache (§2).
    if (auto evicted = st.permCache.insert(block)) {
        if (touchersOf(*evicted).has(victim)) {
            // Even the permissions-only cache lost a speculative
            // block: fall back to OneTM serialized execution.
            st.overflowPending = true;
        }
    }
}

// ---------------------------------------------------------------------
// Eager access path
// ---------------------------------------------------------------------

MemOpOutcome
TMMachine::eagerAccess(CoreId core, Addr addr, bool is_write, Word value,
                       unsigned size, bool txnal, bool is_retry)
{
    Addr block = blockAddr(addr);
    MemOpOutcome out;

    if (_cfg.mode != TMMode::Serial) {
        OpStatus s =
            resolveConflict(core, txnal, block, is_write, is_retry);
        if (s != OpStatus::Ok)
            return failedAccess(core, s);
    }

    out.latency = _ms.access(core, block, is_write);
    if (txnal)
        touch(core, block, is_write);

    if (is_write) {
        speculativeWrite(core, addr, value, size, txnal);
    } else {
        out.value = _ms.memory().read(addr, size);
        audit(core, trace::EventKind::Load, addr, out.value);
    }
    return out;
}

// ---------------------------------------------------------------------
// Non-transactional accesses
// ---------------------------------------------------------------------

MemOpOutcome
TMMachine::plainLoad(CoreId core, Addr addr, unsigned size)
{
    if (_cfg.mode == TMMode::Lazy) {
        // Memory holds only committed data (writes are buffered).
        Cycle lat = _ms.access(core, blockAddr(addr), false);
        return {OpStatus::Ok, lat, _ms.memory().read(addr, size),
                std::nullopt};
    }
    return eagerAccess(core, addr, false, 0, size, false, false);
}

MemOpOutcome
TMMachine::plainStore(CoreId core, Addr addr, Word value, unsigned size)
{
    if (_cfg.mode == TMMode::Lazy) {
        // Acts as a degenerate committed transaction: committer wins.
        // (A buffered store to the word also put its block in the
        // write set.)
        Addr block = blockAddr(addr);
        forEachToucher(core, block, true, [&](CoreId c, bool, bool) {
            doAbort(c, AbortCause::LazyCommitter, true, block);
        });
        Cycle lat = _ms.access(core, block, true);
        _ms.memory().write(addr, value, size);
        return {OpStatus::Ok, lat, 0, std::nullopt};
    }
    return eagerAccess(core, addr, true, value, size, false, false);
}

// ---------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------

MemOpOutcome
TMMachine::txBegin(CoreId core, bool is_retry)
{
    CoreTxState &st = *_cores[core];
    sim_assert(st.status == TxStatus::Idle,
               "txBegin on active transaction (core %u)", core);
    sim_assert(st.heldBankMask == 0,
               "txBegin with commit tokens still held (core %u)", core);

    MemOpOutcome out;
    out.latency = kBeginLatency;

    if (_cfg.mode == TMMode::Serial) {
        if (_serialLockHolder != kNoCore && _serialLockHolder != core)
            return nack(core, WaitOn::SerialLock);
        _serialLockHolder = core;
        out.latency = kSerialLockLatency;
    }

    if (!is_retry || st.timestamp == 0)
        st.timestamp = _nextTimestamp++;
    st.uid = _nextUid++;
    st.status = TxStatus::Active;
    st.txnStartCycle = _eq.now();
    audit(core, trace::EventKind::TxBegin, 0, st.timestamp, st.uid);
    return out;
}

MemOpOutcome
TMMachine::txLoad(CoreId core, Addr addr, unsigned size, bool is_retry)
{
    if (auto gated = txAccessGate(core))
        return *gated;

    CoreTxState &st = *_cores[core];
    Addr block = blockAddr(addr);
    Addr word = wordAddr(addr);
    unsigned byte_off = byteInWord(addr);

    switch (_cfg.mode) {
      case TMMode::Serial:
      case TMMode::Eager:
        return eagerAccess(core, addr, false, 0, size, true, is_retry);

      case TMMode::Lazy: {
        if (rtc::SsbEntry *e = st.ssb.find(word)) {
            MemOpOutcome out;
            out.value = extractBytes(e->concrete, byte_off, size);
            out.latency = 1;
            return out;
        }
        Cycle lat = _ms.access(core, block, false);
        touch(core, block, false);
        MemOpOutcome out;
        out.latency = lat;
        out.value = _ms.memory().read(addr, size);
        audit(core, trace::EventKind::Load, addr, out.value);
        return out;
      }

      case TMMode::LazyVB:
      case TMMode::Retcon: {
        // Figure 6: SSB, IVB, and data cache checked in parallel.
        if (_cfg.mode == TMMode::Retcon) {
            if (rtc::SsbEntry *e = st.ssb.find(word)) {
                MemOpOutcome out;
                out.latency = 1;
                if (addr == e->word && size == e->size) {
                    // Clean store-to-load bypass: copy the symbolic
                    // value, flattening the dependence (§4.3).
                    out.value = extractBytes(e->concrete, 0, size);
                    out.sym = e->sym;
                } else {
                    // Complex sub-word forwarding: pin inputs and
                    // reconstruct the merged bytes (§4.3).
                    if (e->sym)
                        pinEquality(core, e->sym->root);
                    Word base = _ms.memory().readWord(word);
                    if (rtc::IvbEntry *ie = st.ivb.find(block)) {
                        unsigned bw = wordInBlock(addr);
                        if (!((ie->frozenMask >> bw) & 1))
                            base = ie->initWords[bw];
                    }
                    Word merged = overlayBytes(base, e->concrete,
                                               byteInWord(e->word),
                                               e->size);
                    out.value = extractBytes(merged, byte_off, size);
                    if (rtc::IvbEntry *ie = st.ivb.find(block)) {
                        unsigned w = wordInBlock(addr);
                        ie->readMask |= 1u << w;
                        ie->eqMask |= 1u << w;
                        // Frozen words are validated at freeze time,
                        // not against the initial value at commit.
                        if (!((ie->frozenMask >> w) & 1))
                            audit(core, trace::EventKind::Pin, word,
                                  ie->initWords[w]);
                    }
                }
                audit(core, trace::EventKind::Load, addr, out.value);
                return out;
            }
        }
        if (rtc::IvbEntry *e = st.ivb.find(block)) {
            unsigned w = wordInBlock(addr);
            e->readMask |= 1u << w;
            bool frozen = (e->frozenMask >> w) & 1;
            // A frozen word was overwritten by our own eager store:
            // loads must see that store (memory holds it — we own the
            // block). curWords keeps the *pre-store* value, which is
            // the repair-input snapshot, not the load value.
            Word base = frozen ? _ms.memory().readWord(word)
                               : e->initWords[w];
            MemOpOutcome out;
            out.latency = 1;
            out.value = extractBytes(base, byte_off, size);
            if (_cfg.mode == TMMode::Retcon &&
                isFullWordAccess(addr, size) && !frozen) {
                out.sym = rtc::SymTag{word, 0, 8};
            } else if (!frozen) {
                e->eqMask |= 1u << w;
                audit(core, trace::EventKind::Pin, word,
                      e->initWords[w]);
                // Use-time revalidation: an equality-pinned word whose
                // architectural value already changed dooms this
                // transaction — abort now rather than let it chase
                // stale pointers (zombie containment).
                if (_ms.memory().readWord(word) != e->initWords[w]) {
                    violationAbort(core, block, true);
                    return failedAccess(core, OpStatus::AbortSelf);
                }
            }
            audit(core,
                  out.sym ? trace::EventKind::SymLoad
                          : trace::EventKind::Load,
                  addr, out.value, 0, out.sym);
            return out;
        }
        if (!st.ivb.full() && _predictor.shouldTrack(block))
            return symbolicFirstLoad(core, addr, size, is_retry);
        return eagerAccess(core, addr, false, 0, size, true, is_retry);
      }

      case TMMode::DATM: {
        if (!datmOrderAfter(core, block, false))
            return failedAccess(core, OpStatus::AbortSelf);
        Cycle lat = _ms.access(core, block, false);
        touch(core, block, false);
        MemOpOutcome out;
        out.latency = lat;
        // The dependence edges above are block-granular (conservative
        // ordering); the value flow the audit re-derives is per word.
        // A load consumes forwarded data exactly when the word's
        // current value is another in-flight transaction's store, in
        // which case a Forward record (replacing the plain Load)
        // names the producing attempt and store so the reenactment
        // validator can resolve this read against the producer's
        // logged write instead of trusting architectural memory.
        // This second O(cores) pass deliberately runs after the edge
        // loop: cycle resolution above can cascade-abort a candidate
        // producer and roll the word back, so any producer collected
        // mid-loop could be stale.
        std::uint64_t store_seq = 0;
        CoreId producer = findForwardProducer(core, word, store_seq);
        if (producer != kNoCore) {
            Word delivered =
                _ms.memory().readWord(word) ^ _cfg.faultInjectForwardXor;
            out.value = extractBytes(delivered, byte_off, size);
            ++_stats.fwdReads;
            st.datmForwardedRead = true;
            audit(core, trace::EventKind::Forward, word, delivered,
                  _cores[producer]->uid, std::nullopt, rtc::CmpOp::EQ,
                  0, store_seq);
        } else {
            out.value = _ms.memory().read(addr, size);
            audit(core, trace::EventKind::Load, addr, out.value);
        }
        return out;
      }
    }
    panic("unreachable txLoad mode");
}

MemOpOutcome
TMMachine::symbolicFirstLoad(CoreId core, Addr addr, unsigned size,
                             bool is_retry)
{
    CoreTxState &st = *_cores[core];
    Addr block = blockAddr(addr);

    // The first symbolic load performs a real coherence read, so it
    // still conflicts with remote speculative *writers* (§4.2: loads
    // not involved with symbolic repair use the baseline detection;
    // the repair machinery only tolerates later remote writes).
    OpStatus s = resolveConflict(core, true, block, false, is_retry);
    if (s != OpStatus::Ok)
        return failedAccess(core, s);

    Cycle lat = _ms.access(core, block, false);

    std::array<Word, kWordsPerBlock> words{};
    for (unsigned i = 0; i < kWordsPerBlock; ++i)
        words[i] = _ms.memory().readWord(block + i * kWordBytes);

    rtc::IvbEntry *e = st.ivb.allocate(block, words);
    sim_assert(e, "symbolicFirstLoad with full IVB");

    unsigned w = wordInBlock(addr);
    e->readMask |= 1u << w;

    MemOpOutcome out;
    out.latency = lat;
    out.value = extractBytes(words[w], byteInWord(addr), size);
    if (_cfg.mode == TMMode::Retcon && isFullWordAccess(addr, size)) {
        out.sym = rtc::SymTag{wordAddr(addr), 0, 8};
    } else {
        e->eqMask |= 1u << w;
        audit(core, trace::EventKind::Pin, wordAddr(addr), words[w]);
    }
    audit(core,
          out.sym ? trace::EventKind::SymLoad : trace::EventKind::Load,
          addr, out.value, 0, out.sym);
    return out;
}

MemOpOutcome
TMMachine::txStore(CoreId core, Addr addr, Word value,
                   const std::optional<rtc::SymTag> &sym, unsigned size,
                   bool is_retry)
{
    if (auto gated = txAccessGate(core))
        return *gated;

    CoreTxState &st = *_cores[core];
    Addr block = blockAddr(addr);
    Addr word = wordAddr(addr);

    switch (_cfg.mode) {
      case TMMode::Serial:
      case TMMode::Eager:
        return eagerAccess(core, addr, true, value, size, true, is_retry);

      case TMMode::Lazy: {
        Word base = _ms.memory().readWord(word);
        if (rtc::SsbEntry *e = st.ssb.find(word))
            base = e->concrete;
        Word merged = overlayBytes(base, value, byteInWord(addr), size);
        auto put = st.ssb.put(word, merged, std::nullopt, 8);
        sim_assert(put != rtc::SymbolicStoreBuffer::Put::Full,
                   "lazy write buffer is unbounded");
        touch(core, block, true);
        audit(core, trace::EventKind::SymStore, word, merged);
        return MemOpOutcome{OpStatus::Ok, 1, 0, std::nullopt};
      }

      case TMMode::LazyVB:
        return retconEagerStore(core, addr, value, size, is_retry);

      case TMMode::Retcon: {
        bool aligned = isFullWordAccess(addr, size);
        if (sym && aligned) {
            auto put = st.ssb.put(word, value, sym, 8);
            if (put != rtc::SymbolicStoreBuffer::Put::Full) {
                if (rtc::IvbEntry *e = st.ivb.find(block))
                    e->written = true;
                // aux=1 marks an overwrite of an earlier symbolic
                // store to the same word (last writer wins at drain).
                audit(core, trace::EventKind::SymStore, word, value, 0,
                      sym, rtc::CmpOp::EQ,
                      put == rtc::SymbolicStoreBuffer::Put::Updated ? 1
                                                                    : 0);
                return MemOpOutcome{OpStatus::Ok, 1, 0, std::nullopt};
            }
            // SSB full: pin the input and store eagerly (sound, not
            // repairable).
            pinEquality(core, sym->root);
        } else if (sym && !aligned) {
            // Sub-word symbolic data: untrackable (§4.3).
            pinEquality(core, sym->root);
        }
        return retconEagerStore(core, addr, value, size, is_retry);
      }

      case TMMode::DATM: {
        // A re-write invalidates values already forwarded to readers:
        // any transaction that consumed our speculative data for this
        // block read a stale intermediate value and must abort.
        // (The dependence graph is acyclic, so none of these
        // cascades reaches the storing transaction itself.)
        if (writes(core, block)) {
            forEachToucher(core, block, true, [&](CoreId s, bool, bool read) {
                const auto &preds = _cores[s]->datmPreds;
                auto it = preds.find(st.uid);
                if (read && it != preds.end() && (it->second & 2))
                    doAbort(s, AbortCause::DatmCascade, true, block);
            });
        }
        if (!datmOrderAfter(core, block, true))
            return failedAccess(core, OpStatus::AbortSelf);
        Cycle lat = _ms.access(core, block, true);
        touch(core, block, true);
        st.datmStoreSeq[word] = speculativeWrite(core, addr, value, size);
        return MemOpOutcome{OpStatus::Ok, lat, 0, std::nullopt};
      }
    }
    panic("unreachable txStore mode");
}

MemOpOutcome
TMMachine::retconEagerStore(CoreId core, Addr addr, Word value,
                            unsigned size, bool is_retry)
{
    CoreTxState &st = *_cores[core];
    Addr block = blockAddr(addr);
    Addr word = wordAddr(addr);

    // A normal store invalidates any SSB entry for the address
    // (Figure 8, time 10) and writes speculatively into the cache.
    st.ssb.invalidate(word);

    // Acquire the block eagerly *first*: conflict resolution must run
    // before we look at the word's pre-store value, otherwise we could
    // freeze a remote core's uncommitted data.
    OpStatus s = resolveConflict(core, true, block, true, is_retry);
    if (s != OpStatus::Ok)
        return failedAccess(core, s);
    Cycle lat = _ms.access(core, block, true);

    // Storing into a value-tracked word fixes its input value: validate
    // the pre-store (now conflict-free) value and freeze it so the
    // pre-commit walk never compares the word against our own store.
    if (rtc::IvbEntry *e = st.ivb.find(block)) {
        unsigned w = wordInBlock(addr);
        bool already_frozen = (e->frozenMask >> w) & 1;
        if (!already_frozen) {
            Word pre = _ms.memory().readWord(word);
            bool value_sensitive =
                ((e->readMask >> w) & 1) && ((e->eqMask >> w) & 1);
            bool mismatch = value_sensitive && pre != e->initWords[w];
            if (mismatch || !st.constraints.satisfied(
                                word, static_cast<std::int64_t>(pre))) {
                violationAbort(core, block, mismatch);
                return failedAccess(core, OpStatus::AbortSelf);
            }
            e->curWords[w] = pre;
            e->frozenMask |= 1u << w;
            audit(core, trace::EventKind::Freeze, word, pre);
        }
    }

    touch(core, block, true);
    speculativeWrite(core, addr, value, size);
    return MemOpOutcome{OpStatus::Ok, lat, 0, std::nullopt};
}

void
TMMachine::recordBranchConstraint(CoreId core, const rtc::SymTag &sym,
                                  rtc::CmpOp op, std::int64_t rhs,
                                  bool taken)
{
    CoreTxState &st = *_cores[core];
    sim_assert(st.status == TxStatus::Active,
               "branch constraint outside transaction");
    if (_cfg.mode != TMMode::Retcon) {
        return;
    }
    rtc::CmpOp eff = taken ? op : rtc::negate(op);
    // Normalize ([root] + delta) OP rhs  to  [root] OP (rhs - delta).
    std::int64_t k = rhs - sym.delta;
    auto r = st.constraints.record(sym.root, eff, k);
    switch (r) {
      case rtc::ConstraintBuffer::Record::Ok:
        audit(core, trace::EventKind::Constraint, sym.root,
              static_cast<Word>(k), 0, std::nullopt, eff);
        break;
      case rtc::ConstraintBuffer::Record::Full:
      case rtc::ConstraintBuffer::Record::Inexact:
        pinEquality(core, sym.root);
        break;
      case rtc::ConstraintBuffer::Record::Unsat:
        panic("constraint record %s: the recorded set excludes the "
              "executed value (root 0x%llx)",
              rtc::ConstraintBuffer::recordName(r),
              static_cast<unsigned long long>(sym.root));
    }
}

void
TMMachine::pinEquality(CoreId core, Addr root)
{
    CoreTxState &st = *_cores[core];
    Addr block = blockAddr(root);
    rtc::IvbEntry *e = st.ivb.find(block);
    sim_assert(e, "equality pin for untracked root");
    unsigned w = wordInBlock(root);
    if ((e->frozenMask >> w) & 1)
        return; // Input already fixed and validated.
    e->eqMask |= 1u << w;
    e->readMask |= 1u << w;
    audit(core, trace::EventKind::Pin, root, e->initWords[w]);
    // Use-time revalidation (zombie containment). This runs between
    // instructions where aborting is unsafe; flag the violation and
    // let the next machine operation convert it into an abort.
    if (_ms.memory().readWord(root) != e->initWords[w])
        st.earlyViolation = block;
}

std::optional<MemOpOutcome>
TMMachine::txAccessGate(CoreId core)
{
    CoreTxState &st = *_cores[core];
    sim_assert(st.status == TxStatus::Active,
               "transactional access outside active transaction "
               "(core %u)",
               core);
    if (st.earlyViolation) {
        violationAbort(core, *st.earlyViolation, true);
        return failedAccess(core, OpStatus::AbortSelf);
    }
    // OneTM overflow handling: acquire the serialization token first.
    if (st.overflowPending && !st.overflowed) {
        if (_overflowTokenHolder != kNoCore)
            return nack(core, WaitOn::OverflowToken);
        _overflowTokenHolder = core;
        st.overflowed = true;
        st.overflowPending = false;
        ++_stats.overflows;
    }
    return std::nullopt;
}

MemOpOutcome
TMMachine::nack(CoreId core, WaitOn on)
{
    return {OpStatus::Nack, nackLatency(core), 0, std::nullopt, on};
}

MemOpOutcome
TMMachine::failedAccess(CoreId core, OpStatus s)
{
    if (s == OpStatus::Nack)
        return nack(core, WaitOn::Conflict);
    return {s, 0, 0, std::nullopt};
}

std::uint64_t
TMMachine::speculativeWrite(CoreId core, Addr addr, Word value,
                            unsigned size, bool txnal)
{
    Addr word = wordAddr(addr);
    std::uint64_t vid = _writeSeq++;
    if (txnal)
        _cores[core]->undo.record(word, _ms.memory().readWord(word), vid);
    _ms.memory().write(addr, value, size);
    audit(core, trace::EventKind::Store, addr, value,
          _sink ? _ms.memory().readWord(word) : 0, std::nullopt,
          rtc::CmpOp::EQ, 0, vid);
    return vid;
}

// ---------------------------------------------------------------------
// NACK/abort retry backoff
// ---------------------------------------------------------------------

Cycle
TMMachine::backoffExtra(CoreId core, std::uint32_t steps)
{
    const BackoffConfig &b = _cfg.backoff;
    if (steps == 0)
        return 0;
    Cycle extra = 0;
    switch (b.policy) {
      case BackoffPolicy::None:
        return 0;
      case BackoffPolicy::Linear:
        extra = b.base * steps;
        break;
      case BackoffPolicy::ExpCapped:
        // base * 2^(steps-1), saturating well before the shift wraps.
        extra = steps >= 16 ? b.cap
                            : b.base * (Cycle(1) << (steps - 1));
        break;
    }
    extra = std::min(extra, b.cap);
    if (extra > 1) {
        // Equal jitter: uniform in [extra/2, extra], per-core stream.
        extra = extra / 2 + _cores[core]->backoffRng.below(extra / 2 + 1);
    }
    return extra;
}

Cycle
TMMachine::nackLatency(CoreId core)
{
    Cycle lat = kNackRetryCycles;
    if (_cfg.backoff.policy == BackoffPolicy::None)
        return lat;
    Cycle extra = backoffExtra(core, ++_cores[core]->nackStreak);
    if (extra > 0) {
        ++_stats.backoffNacks;
        _stats.backoffCycles += extra;
    }
    return lat + extra;
}

Cycle
TMMachine::restartBackoff(CoreId core)
{
    // DATM cascade back-pressure: deterministic (no jitter),
    // independent of the retry-backoff policy, charged only to cores
    // whose last abort came from a forwarding cascade — every
    // non-DATM mode never builds a streak and is bit-identical.
    const CoreTxState &st = *_cores[core];
    Cycle cascade = 0;
    if (st.cascadeStreak > 0) {
        std::uint32_t s = std::min(st.cascadeStreak - 1, 16u);
        cascade = std::min(kCascadeBpCap, kCascadeBpBase << s);
        ++_stats.cascadeBpRestarts;
        _stats.cascadeBpCycles += cascade;
    }
    if (_cfg.backoff.policy == BackoffPolicy::None)
        return cascade;
    Cycle extra = backoffExtra(core, st.abortStreak);
    if (extra > 0) {
        ++_stats.backoffRestarts;
        _stats.backoffCycles += extra;
    }
    return cascade + extra;
}

// ---------------------------------------------------------------------
// Commit-token arbitration (per directory bank)
// ---------------------------------------------------------------------

std::uint64_t
TMMachine::neededBankMask(CoreId core) const
{
    // Every block the commit protocol will write: the blocks the
    // attempt wrote eagerly, the SSB drain targets, and tracked blocks
    // the pre-commit walk reacquires for writing. Computed once at
    // acquisition time — the written blocks only grow during commit
    // with blocks already named here.
    const CoreTxState &st = *_cores[core];
    std::uint64_t mask = 0;
    auto add = [&](Addr block) {
        mask |= std::uint64_t(1) << _ms.bankOf(block);
    };
    for (Addr b : st.touched)
        if (writes(core, b))
            add(b);
    for (const rtc::SsbEntry &e : st.ssb.entries())
        add(blockAddr(e.word));
    for (const rtc::IvbEntry &e : st.ivb.entries())
        if (e.written)
            add(e.block);
    return mask;
}

std::pair<bool, Cycle>
TMMachine::acquireCommitTokens(CoreId core)
{
    CoreTxState &st = *_cores[core];
    if (!st.commitBankMask)
        st.commitBankMask = neededBankMask(core);
    std::uint64_t need = *st.commitBankMask;
    std::uint64_t req_ts = effectiveTs(core, true);
    const net::FleetTopology &topo = _ms.topology();
    unsigned my = topo.clusterOfCore(core);

    // All-or-nothing, oldest-wins. An older holder makes us wait; a
    // younger holder is aborted (it releases its tokens and retries),
    // exactly mirroring the block-level conflict policy. Waits
    // therefore only ever run younger -> older, so the oldest
    // committer always progresses and arbitration cannot deadlock.
    //
    // Two-level in a fleet: the committer's own cluster's tokens are
    // checked first with no wire cost — a local loss NACKs before any
    // remote cluster is bothered. Only then are the remote clusters
    // holding needed banks contacted, in parallel, one control round
    // trip each; grant or NACK is learned from the slowest reply, so
    // the wire cost (max RTT over contacted clusters) is paid either
    // way and shows up in the commit step's latency.
    auto olderHolderWaits = [&](bool remote) {
        for (unsigned b = 0; b < _bankTokens.size(); ++b) {
            bool mine = topo.clusterOfBank(b) == my;
            if (!((need >> b) & 1) || mine == remote)
                continue;
            CoreId h = _bankTokens[b].holder;
            if (h == kNoCore || h == core ||
                effectiveTs(h, true) >= req_ts)
                continue;
            ++_stats.tokenWaits;
            ++_bankTokens[b].stats.waits;
            if (remote)
                ++_stats.xcTokenWaits;
            audit(core, trace::EventKind::TokenWait, b, h, need);
            if (_contention)
                _contention(core, tokenBlameKey(b));
            return true;
        }
        return false;
    };
    Cycle wire = 0;
    if (olderHolderWaits(false))
        return {false, wire};
    if (_net && topo.fleet()) {
        for (unsigned c = 0; c < topo.clusters; ++c) {
            if (c == my)
                continue;
            std::uint64_t cluster_banks =
                need >> (c * topo.banksPerCluster);
            cluster_banks &= (std::uint64_t(1) << topo.banksPerCluster) - 1;
            if (!cluster_banks)
                continue;
            Cycle rtt = _net->roundTrip(my, c, net::kCtrlMsgWords,
                                        net::kCtrlMsgWords, _eq.now());
            wire = std::max(wire, rtt);
            ++_stats.xcTokenMsgs;
        }
        _stats.xcTokenCycles += wire;
    }
    if (olderHolderWaits(true))
        return {false, wire};
    // Evict younger holders first (doAbort releases their tokens),
    // then take every needed bank — never assign tokens partially.
    for (unsigned b = 0; b < _bankTokens.size(); ++b) {
        if (!((need >> b) & 1))
            continue;
        CoreId h = _bankTokens[b].holder;
        if (h != kNoCore && h != core) {
            ++_stats.tokenSteals;
            doAbort(h, AbortCause::Conflict, true, tokenBlameKey(b));
        }
    }
    if (!st.active()) {
        // Defensive: a cascade from aborting a holder reached us
        // (cannot happen — commit-order waits resolve every
        // predecessor first — but never hand tokens to an idle
        // transaction).
        return {false, wire};
    }
    for (unsigned b = 0; b < _bankTokens.size(); ++b) {
        if (!((need >> b) & 1))
            continue;
        _bankTokens[b].holder = core;
        ++_bankTokens[b].stats.acquires;
    }
    st.heldBankMask = need;
    ++_stats.tokenAcquires;
    return {true, wire};
}

void
TMMachine::releaseTokens(CoreId core)
{
    if (_serialLockHolder == core)
        _serialLockHolder = kNoCore;
    if (_overflowTokenHolder == core)
        _overflowTokenHolder = kNoCore;
    if (_lazyCommitToken == core)
        _lazyCommitToken = kNoCore;
    CoreTxState &st = *_cores[core];
    for (std::uint64_t m = st.heldBankMask; m; m &= m - 1) {
        BankToken &t = _bankTokens[std::countr_zero(m)];
        if (t.holder == core)
            t.holder = kNoCore;
    }
    st.heldBankMask = 0;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

CommitStepOutcome
TMMachine::commitStep(CoreId core, bool is_retry)
{
    CoreTxState &st = *_cores[core];
    sim_assert(st.active(), "commitStep on idle core %u", core);

    if (st.status == TxStatus::Active) {
        st.status = TxStatus::Committing;
        audit(core, trace::EventKind::CommitStart);
    }

    switch (st.commitPhase) {
      case CommitPhase::Arbitrate:
        return commitArbitrate(core);
      case CommitPhase::Walk:
        return commitWalk(core, is_retry);
      case CommitPhase::Drain:
        return commitDrain(core, is_retry);
      case CommitPhase::Finalize:
        break;
    }
    return finalizeCommit(core);
}

CommitStepOutcome
TMMachine::commitCharge(CoreId core, Cycle latency, OpStatus status)
{
    _cores[core]->commitCycles += latency;
    return {status, latency, false};
}

CommitStepOutcome
TMMachine::commitNack(CoreId core, WaitOn on, Cycle wire)
{
    CommitStepOutcome out =
        commitCharge(core, nackLatency(core) + wire, OpStatus::Nack);
    out.wait = on;
    return out;
}

CommitStepOutcome
TMMachine::commitFailed(CoreId core, OpStatus s)
{
    if (s == OpStatus::Nack)
        return commitNack(core, WaitOn::Conflict);
    // An aborted commit charges nothing (its state is already reset).
    return commitCharge(core, 0, s);
}

void
TMMachine::enterDrain(CoreId core)
{
    // Every tracked block (Lazy tracks none) is now reacquired and
    // protected by its touch bits: the roots' architectural values
    // are final for the rest of the commit.
    _cores[core]->commitPhase = CommitPhase::Drain;
    audit(core, trace::EventKind::CommitDrain);
}

CommitStepOutcome
TMMachine::commitArbitrate(CoreId core)
{
    CoreTxState &st = *_cores[core];

    // DATM's globally-enforced commit order: wait for predecessors.
    // Tokens are requested only after every commit-order predecessor
    // resolved, so a token holder can never be waiting on the
    // requester.
    for (const auto &[p, flags] : st.datmPreds)
        if (activeAttempt(p))
            return commitNack(core, WaitOn::DatmPred);

    Cycle wire = 0;
    if (_cfg.mode == TMMode::Lazy) {
        // TCC's single global commit token.
        if (_lazyCommitToken != kNoCore && _lazyCommitToken != core)
            return commitNack(core, WaitOn::LazyToken);
        _lazyCommitToken = core;
    } else if (_cfg.commitTokenArbitration &&
               _cfg.mode != TMMode::Serial) {
        auto [granted, wire_lat] = acquireCommitTokens(core);
        if (!granted)
            return commitNack(core, WaitOn::BankTokens, wire_lat);
        wire = wire_lat;
    }

    switch (_cfg.mode) {
      case TMMode::LazyVB:
      case TMMode::Retcon:
        st.commitPhase = CommitPhase::Walk;
        break;
      case TMMode::Lazy:
        enterDrain(core);
        break;
      case TMMode::Serial:
      case TMMode::Eager:
      case TMMode::DATM:
        st.commitPhase = CommitPhase::Finalize;
        break;
    }
    return commitCharge(core, kCommitTokenLatency + wire);
}

CommitStepOutcome
TMMachine::commitWalk(CoreId core, bool is_retry)
{
    // Figure 7, step 1: reacquire lost blocks, validate.
    CoreTxState &st = *_cores[core];
    if (st.commitIvbIdx >= st.ivb.entries().size()) {
        enterDrain(core);
        return commitDrain(core, is_retry);
    }
    std::size_t count = _cfg.idealized
                            ? st.ivb.entries().size() - st.commitIvbIdx
                            : 1;
    Cycle max_lat = 0;
    for (std::size_t n = 0; n < count; ++n) {
        rtc::IvbEntry &e = st.ivb.entries()[st.commitIvbIdx];
        bool want_write = e.written; // §4.4 upgrade-miss avoidance.
        bool have = want_write ? _ms.hasWritePerm(core, e.block)
                               : _ms.hasReadPerm(core, e.block);
        Cycle lat = mem::kL1HitCycles;
        if (!have) {
            OpStatus s = resolveConflict(core, true, e.block, want_write,
                                         is_retry);
            if (s != OpStatus::Ok)
                return commitFailed(core, s);
            lat = _ms.access(core, e.block, want_write);
        }
        // Protect the block eagerly for the rest of the commit
        // (Figure 7 sets the speculatively-read bit).
        touch(core, e.block, false);
        if (want_write)
            touch(core, e.block, true);

        // Refresh final values and check all constraints.
        for (unsigned w = 0; w < kWordsPerBlock; ++w) {
            if (!((e.frozenMask >> w) & 1)) {
                e.curWords[w] =
                    _ms.memory().readWord(e.block + w * kWordBytes);
            }
            bool read = (e.readMask >> w) & 1;
            if (!read)
                continue;
            bool eq = (e.eqMask >> w) & 1;
            bool mismatch = eq && !((e.frozenMask >> w) & 1) &&
                            e.curWords[w] != e.initWords[w];
            Addr word_addr = e.block + w * kWordBytes;
            if (mismatch ||
                !st.constraints.satisfied(
                    word_addr, static_cast<std::int64_t>(e.curWords[w]))) {
                violationAbort(core, e.block, mismatch);
                return commitFailed(core, OpStatus::AbortSelf);
            }
        }
        ++st.commitIvbIdx;
        max_lat = std::max(max_lat, lat);
    }
    return commitCharge(core, max_lat);
}

CommitStepOutcome
TMMachine::commitDrain(CoreId core, bool is_retry)
{
    // Figure 7, step 2: drain the store buffer, one entry per step.
    CoreTxState &st = *_cores[core];
    if (st.commitSsbIdx >= st.ssb.entries().size())
        return finalizeCommit(core);
    rtc::SsbEntry &e = st.ssb.entries()[st.commitSsbIdx];
    Addr block = blockAddr(e.word);
    bool lazy = _cfg.mode == TMMode::Lazy;
    Cycle lat = mem::kL1HitCycles;
    if (lazy) {
        // Committer wins: every other transaction that touched this
        // block aborts (Figure 2e).
        forEachToucher(core, block, true, [&](CoreId c, bool, bool) {
            doAbort(c, AbortCause::LazyCommitter, true, block);
        });
        lat = _ms.access(core, block, true);
    } else if (!_ms.hasWritePerm(core, block)) {
        OpStatus s = resolveConflict(core, true, block, true, is_retry);
        if (s != OpStatus::Ok)
            return commitFailed(core, s);
        lat = _ms.access(core, block, true);
    }
    touch(core, block, true);
    Word value = e.concrete;
    if (e.sym) {
        rtc::IvbEntry *root_entry = st.ivb.find(blockAddr(e.sym->root));
        sim_assert(root_entry, "symbolic store with untracked root");
        value = rtc::evalSym(*e.sym,
                             root_entry->curWords[wordInBlock(e.sym->root)]);
    }
    value ^= _cfg.faultInjectRepairXor;
    // Undo-logged like any speculative store: a commit aborted
    // mid-drain (a plain store hitting a Lazy committer's write set)
    // rolls back the words it already drained.
    Word before = _ms.memory().readWord(e.word);
    st.undo.record(e.word, before, _writeSeq++);
    _ms.memory().write(e.word, value, e.size);
    audit(core, trace::EventKind::Repair, e.word, before, value, e.sym);
    ++st.commitSsbIdx;
    return commitCharge(core, _cfg.idealized && !lazy ? 0 : lat);
}

CommitStepOutcome
TMMachine::finalizeCommit(CoreId core)
{
    CoreTxState &st = *_cores[core];

    // Repair the returned register from its root's final value.
    if (st.returnSym) {
        Addr root = st.returnSym->root;
        const rtc::IvbEntry *e = st.ivb.find(blockAddr(root));
        sim_assert(e, "returned register with untracked root 0x%llx",
                   static_cast<unsigned long long>(root));
        st.returnValue =
            rtc::evalSym(*st.returnSym, e->curWords[wordInBlock(root)]);
    }

    sampleTxnStats(core);

    releaseTokens(core);

    // The forwarded-data flag must be read before resetSpeculation()
    // clears it; it rides on the commit record so exports make the
    // validator's treat-DATM-as-eager gap visible per commit.
    std::uint8_t commit_aux =
        st.datmForwardedRead ? trace::kCommitAuxDatmForwarded : 0;
    clearTouches(core);
    st.resetSpeculation();
    st.timestamp = 0;
    // Backoff streaks end with the transaction.
    st.nackStreak = 0;
    st.abortStreak = 0;
    st.cascadeStreak = 0;
    ++_stats.commits;
    audit(core, trace::EventKind::Commit, 0, 0, 0, std::nullopt,
          rtc::CmpOp::EQ, commit_aux);

    return {OpStatus::Ok, 1, true};
}

void
TMMachine::sampleTxnStats(CoreId core)
{
    CoreTxState &st = *_cores[core];
    _stats.blocksLost.sample(static_cast<double>(st.ivb.lostCount()));
    _stats.blocksTracked.sample(static_cast<double>(st.ivb.size()));
    _stats.symRegs.sample(st.returnSym ? 1.0 : 0.0);
    _stats.privateStores.sample(static_cast<double>(st.ssb.size()));
    _stats.constraintAddrs.sample(
        static_cast<double>(st.constraints.size()));
    _stats.commitCycles.sample(static_cast<double>(st.commitCycles));
    _stats.totalCommitCycles += static_cast<double>(st.commitCycles);
    _stats.totalTxnCycles +=
        static_cast<double>(_eq.now() - st.txnStartCycle);
}

} // namespace retcon::htm
