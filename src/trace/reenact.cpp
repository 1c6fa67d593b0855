#include "trace/reenact.hpp"

#include <cinttypes>
#include <cstdio>

#include "sim/logging.hpp"

namespace retcon::trace {

namespace {

const char *
mismatchName(Mismatch::What w)
{
    switch (w) {
      case Mismatch::What::RepairValue: return "repair-value";
      case Mismatch::What::Constraint: return "constraint";
      case Mismatch::What::PinValue: return "pin-value";
      case Mismatch::What::UndrainedStore: return "undrained-store";
      case Mismatch::What::ForwardValue: return "forward-value";
      case Mismatch::What::ForwardChain: return "forward-chain";
    }
    return "?";
}

} // namespace

std::string
Mismatch::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s core=%u cycle=%" PRIu64 " word=0x%" PRIx64
                  " expected=%" PRIu64 " got=%" PRIu64,
                  mismatchName(what), core, cycle, word, expected, got);
    return buf;
}

std::string
ReenactReport::summary() const
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "reenact: %" PRIu64 " commits, %" PRIu64 " repairs, %"
                  PRIu64 " constraints, %" PRIu64 " pins, %" PRIu64
                  " forwards checked; %" PRIu64
                  " forwarded commits re-derived, %" PRIu64
                  " skipped; %" PRIu64 " mismatches",
                  commitsChecked, repairsChecked, constraintsChecked,
                  pinsChecked, forwardsChecked, forwardedCommitsChecked,
                  forwardedCommitsSkipped, mismatches);
    return buf;
}

ReenactmentValidator::ReenactmentValidator(ReadWordFn read_word,
                                           std::size_t max_samples)
    : _readWord(std::move(read_word)), _maxSamples(max_samples)
{
    sim_assert(_readWord, "reenactment validator needs a memory reader");
}

ReenactmentValidator::TxLog &
ReenactmentValidator::log(CoreId core)
{
    if (core >= _logs.size())
        _logs.resize(core + 1);
    return _logs[core];
}

std::size_t
ReenactmentValidator::openAttempts() const
{
    std::size_t open = 0;
    for (const TxLog &t : _logs)
        if (t.active)
            ++open;
    return open;
}

void
ReenactmentValidator::flag(Mismatch m)
{
    ++_report.mismatches;
    if (_report.samples.size() < _maxSamples)
        _report.samples.push_back(m);
    warn("reenactment mismatch: %s", m.describe().c_str());
}

void
ReenactmentValidator::snapshotRoots(TxLog &t)
{
    // The machine emits CommitDrain only after every tracked block has
    // been reacquired and inserted into the committing transaction's
    // conflict sets, so the words read here are coherence-protected
    // until the commit completes: this snapshot IS the set of final
    // input values a full replay would observe.
    auto snap = [&](Addr root) {
        if (t.roots.count(root))
            return;
        auto f = t.frozen.find(root);
        t.roots[root] = f != t.frozen.end() ? f->second
                                            : _readWord(root);
    };
    for (const auto &[word, e] : t.stores)
        if (e.symbolic)
            snap(e.sym.root);
    for (const auto &c : t.constraints)
        snap(c.root);
    for (const auto &p : t.pins)
        snap(p.root);
}

Word
ReenactmentValidator::rootValue(const TxLog &t, Addr root) const
{
    auto it = t.roots.find(root);
    sim_assert(it != t.roots.end(),
               "reenactment root 0x%llx not snapshotted",
               static_cast<unsigned long long>(root));
    return it->second;
}

void
ReenactmentValidator::checkRepair(TxLog &t, const Record &r)
{
    ++_report.repairsChecked;
    auto it = t.stores.find(r.addr);
    if (it == t.stores.end()) {
        // The machine drained a store our log never saw: count it as a
        // repair-value mismatch against "no such store".
        flag(Mismatch{Mismatch::What::RepairValue, r.cycle, r.core,
                      r.addr, 0, r.b});
        return;
    }
    StoreEnt &e = it->second;
    e.repaired = true;
    Word expected = e.symbolic
                        ? rtc::evalSym(e.sym, rootValue(t, e.sym.root))
                        : e.concrete;
    if (expected != r.b) {
        flag(Mismatch{Mismatch::What::RepairValue, r.cycle, r.core,
                      r.addr, expected, r.b});
    }
}

void
ReenactmentValidator::resolveForward(TxLog &t, const Record &r)
{
    // Records arrive in machine-global seq order, so the producing
    // store — and, transitively, every upstream link of the chain —
    // has already been processed when the Forward record lands: the
    // producer's `writes` entry for this word is exactly the store
    // the machine claims to have forwarded, iff the value-ids match.
    // The verdict is held on the link and scored only if the
    // consuming attempt commits (aborted attempts owe nothing).
    FwdLink l;
    l.cycle = r.cycle;
    l.word = r.addr;
    l.producerUid = r.b;
    l.delivered = r.a;
    auto uc = _uidCore.find(r.b);
    if (uc != _uidCore.end()) {
        TxLog &p = log(uc->second);
        if (p.active && p.uid == r.b) {
            auto w = p.writes.find(r.addr);
            if (w != p.writes.end() && w->second.vid == r.vid) {
                l.resolved = true;
                l.derived = w->second.word;
            }
        }
    }
    t.links.push_back(l);
}

void
ReenactmentValidator::poisonLinksFrom(std::uint64_t producer_uid)
{
    // The producer aborted: every value it forwarded is invalid. DATM
    // must cascade-abort the consumers; one that commits anyway has a
    // broken chain, which scoring the poisoned link will flag.
    for (TxLog &t : _logs) {
        if (!t.active)
            continue;
        for (FwdLink &l : t.links)
            if (l.producerUid == producer_uid)
                l.poisoned = true;
    }
}

void
ReenactmentValidator::checkForwardChain(TxLog &t, const Record &r)
{
    bool flagged = (r.aux & kCommitAuxDatmForwarded) != 0;
    if (!flagged && t.links.empty())
        return;
    if (flagged && t.links.empty()) {
        // The machine says this commit consumed forwarded data, but
        // the stream carries no Forward record to re-derive it from.
        // Cannot happen on a healthy machine; count the commit as
        // skipped so reports can prove zero chains escaped the audit.
        ++_report.forwardedCommitsSkipped;
        flag(Mismatch{Mismatch::What::ForwardChain, r.cycle, r.core, 0,
                      0, 0});
        return;
    }
    if (!flagged) {
        // Forward records without the commit flag: the machine lost
        // track of its own forwarding. Flag, then still score links.
        flag(Mismatch{Mismatch::What::ForwardChain, r.cycle, r.core,
                      t.links.front().word, 0, 0});
    } else {
        ++_report.forwardedCommitsChecked;
    }
    for (const FwdLink &l : t.links) {
        ++_report.forwardsChecked;
        if (l.poisoned || !l.resolved) {
            flag(Mismatch{Mismatch::What::ForwardChain, l.cycle, r.core,
                          l.word, l.resolved ? l.derived : 0,
                          l.delivered});
            continue;
        }
        // DATM enforces commit order along dataflow edges: a consumer
        // must not commit while a transaction it consumed data from
        // is still in flight (the producer could yet abort — or
        // commit after its consumer, inverting the serial order). A
        // still-active producer here is a machine bug regardless of
        // the producer's eventual fate, and checking it now is what
        // lets the consumer's log be discarded at commit rather than
        // retained until every producer resolves.
        if (_uidCore.count(l.producerUid)) {
            flag(Mismatch{Mismatch::What::ForwardChain, l.cycle, r.core,
                          l.word, l.derived, l.delivered});
            continue;
        }
        if (l.delivered != l.derived) {
            flag(Mismatch{Mismatch::What::ForwardValue, l.cycle, r.core,
                          l.word, l.derived, l.delivered});
        }
    }
}

void
ReenactmentValidator::finishCommit(TxLog &t, const Record &r)
{
    ++_report.commitsChecked;
    checkForwardChain(t, r);
    _uidCore.erase(t.uid);

    // A commit that never reached the drain phase (eager/serial modes,
    // or a retcon commit with no tracked state) has an empty log;
    // everything below is vacuous then.
    for (const auto &c : t.constraints) {
        ++_report.constraintsChecked;
        Word root = t.roots.count(c.root) ? t.roots.at(c.root)
                                          : _readWord(c.root);
        if (!rtc::evalCmp(static_cast<std::int64_t>(root), c.op, c.rhs)) {
            flag(Mismatch{Mismatch::What::Constraint, r.cycle, r.core,
                          c.root, static_cast<Word>(c.rhs), root});
        }
    }
    for (const auto &p : t.pins) {
        ++_report.pinsChecked;
        Word root = t.roots.count(p.root) ? t.roots.at(p.root)
                                          : _readWord(p.root);
        if (root != p.initValue) {
            flag(Mismatch{Mismatch::What::PinValue, r.cycle, r.core,
                          p.root, p.initValue, root});
        }
    }
    for (const auto &[word, e] : t.stores) {
        if (!e.repaired) {
            flag(Mismatch{Mismatch::What::UndrainedStore, r.cycle,
                          r.core, word,
                          e.symbolic
                              ? rtc::evalSym(e.sym,
                                             rootValue(t, e.sym.root))
                              : e.concrete,
                          0});
        }
    }
    t.clear();
}

void
ReenactmentValidator::onEvent(const Record &r)
{
    TxLog &t = log(r.core);
    switch (r.kind) {
      case EventKind::TxBegin:
        t.clear();
        t.active = true;
        t.uid = r.b;
        if (t.uid != 0)
            _uidCore[t.uid] = r.core;
        break;

      case EventKind::SymStore:
        if (!t.active)
            break;
        // Mirrors SymbolicStoreBuffer::put: last writer wins per word.
        t.stores[r.addr] =
            StoreEnt{r.a, r.sym, r.hasSym, false};
        break;

      case EventKind::Store:
        // An eager store to a word invalidates any pending symbolic
        // store for it (Figure 8, time 10). Word granularity. The
        // resulting word value + write seq are also logged so the
        // attempt can act as a forwarding producer (DATM).
        if (t.active) {
            Addr word = r.addr & ~(kWordBytes - 1);
            t.stores.erase(word);
            t.writes[word] = WriteEnt{r.b, r.vid};
        }
        break;

      case EventKind::Forward:
        if (t.active)
            resolveForward(t, r);
        break;

      case EventKind::Freeze:
        if (t.active)
            t.frozen[r.addr] = r.a;
        break;

      case EventKind::Pin:
        if (t.active)
            t.pins.push_back(PinEnt{r.addr, r.a});
        break;

      case EventKind::Constraint:
        if (t.active)
            t.constraints.push_back(ConstraintEnt{
                r.addr, r.cmp, static_cast<std::int64_t>(r.a)});
        break;

      case EventKind::CommitDrain:
        if (t.active) {
            t.draining = true;
            snapshotRoots(t);
        }
        break;

      case EventKind::Repair:
        if (t.active && t.draining)
            checkRepair(t, r);
        break;

      case EventKind::Commit:
        if (t.active)
            finishCommit(t, r);
        t.clear();
        break;

      case EventKind::Abort:
        ++_report.abortsSeen;
        if (t.active) {
            poisonLinksFrom(t.uid);
            _uidCore.erase(t.uid);
        }
        t.clear();
        break;

      case EventKind::Load:
      case EventKind::SymLoad:
      case EventKind::BlockLost:
      case EventKind::CommitStart:
      case EventKind::TokenWait:
      case EventKind::UserMark:
        break; // Informational only.
    }
}

} // namespace retcon::trace
