#include "query/index.hpp"

#include <algorithm>
#include <unordered_set>

namespace retcon::query {

namespace {

/** Does this record touch a coherence block through its addr? */
bool
touchesBlock(trace::EventKind k)
{
    using K = trace::EventKind;
    switch (k) {
      case K::Load:
      case K::SymLoad:
      case K::Store:
      case K::SymStore:
      case K::Freeze:
      case K::Pin:
      case K::Constraint:
      case K::Forward:
      case K::Repair:
      case K::BlockLost:
        return true;
      default:
        return false;
    }
}

/** Does this record only exist because attempts interacted? */
bool
contentionMarker(trace::EventKind k)
{
    using K = trace::EventKind;
    return k == K::Forward || k == K::TokenWait || k == K::BlockLost ||
           k == K::Abort;
}

} // namespace

TraceIndex::TraceIndex(std::vector<trace::Record> recs)
    : _recs(std::move(recs))
{
    _recAttempt.assign(_recs.size(), 0);
    std::unordered_map<CoreId, std::uint64_t> inFlight;
    std::unordered_map<CoreId, std::optional<Word>> coreMark;
    std::unordered_map<CoreId, std::size_t> openSpan;
    // Block -> uids of the in-flight attempts that touched it.
    std::unordered_map<Addr, std::vector<std::uint64_t>> touchers;
    // An ending attempt leaves the toucher set of every block it held.
    auto release = [&](const Attempt &at) {
        for (std::size_t j : at.recordIdx) {
            if (!touchesBlock(_recs[j].kind))
                continue;
            auto &v = touchers[blockAddr(_recs[j].addr)];
            v.erase(std::remove(v.begin(), v.end(), at.uid), v.end());
        }
    };
    if (!_recs.empty())
        _reach.first = _recs.front().seq;

    for (std::size_t i = 0; i < _recs.size(); ++i) {
        const trace::Record &r = _recs[i];
        if (contentionMarker(r.kind))
            _reach.contention = std::min(_reach.contention, r.seq);
        if (r.kind == trace::EventKind::Repair)
            _reach.repair = std::min(_reach.repair, r.seq);
        if (r.kind == trace::EventKind::Forward)
            _reach.forward = std::min(_reach.forward, r.seq);

        auto fit = inFlight.find(r.core);
        std::uint64_t uid = fit == inFlight.end() ? 0 : fit->second;

        if (r.kind == trace::EventKind::UserMark) {
            auto os = openSpan.find(r.core);
            if (os != openSpan.end())
                _spans[os->second].endSeq = r.seq;
            openSpan[r.core] = _spans.size();
            _spans.push_back({r.a, r.core, r.seq,
                              trace::kSeqUnreached});
            coreMark[r.core] = r.a;
            _recAttempt[i] = uid;
            if (uid != 0)
                _attempts[uid].recordIdx.push_back(i);
            continue;
        }

        if (r.kind == trace::EventKind::TxBegin) {
            uid = r.b;
            inFlight[r.core] = uid;
            Attempt &at = _attempts[uid];
            at.uid = uid;
            at.core = r.core;
            at.beginSeq = r.seq;
            at.beginCycle = r.cycle;
            auto cm = coreMark.find(r.core);
            if (cm != coreMark.end())
                at.annotation = cm->second;
            at.recordIdx.push_back(i);
            _recAttempt[i] = uid;
            continue;
        }

        _recAttempt[i] = uid;
        Attempt *at = uid != 0 ? &_attempts[uid] : nullptr;
        if (at)
            at->recordIdx.push_back(i);

        if (touchesBlock(r.kind)) {
            Addr block = blockAddr(r.addr);
            _blockIdx[block].push_back(i);
            if (at) {
                // An attempt's first touch of a block meets every
                // attempt already in flight on it.
                auto &present = touchers[block];
                if (std::find(present.begin(), present.end(), uid) ==
                    present.end()) {
                    if (!present.empty()) {
                        _overlaps[block] += present.size();
                        _reach.contention =
                            std::min(_reach.contention, r.seq);
                    }
                    present.push_back(uid);
                }
            }
        }

        switch (r.kind) {
          case trace::EventKind::Repair:
            if (at)
                ++at->repairs;
            break;
          case trace::EventKind::Forward:
            if (at)
                ++at->forwards;
            break;
          case trace::EventKind::Commit:
            if (at) {
                at->committed = true;
                at->endSeq = r.seq;
                at->endCycle = r.cycle;
                release(*at);
            }
            inFlight.erase(r.core);
            break;
          case trace::EventKind::Abort:
            if (at) {
                at->aborted = true;
                at->abortCause = r.aux;
                at->blameBlock = r.addr;
                at->endSeq = r.seq;
                at->endCycle = r.cycle;
                release(*at);
            }
            // The blamed block's timeline shows the abort too.
            if (r.addr != 0)
                _blockIdx[blockAddr(r.addr)].push_back(i);
            inFlight.erase(r.core);
            break;
          default:
            break;
        }
    }
}

const Attempt *
TraceIndex::attempt(std::uint64_t uid) const
{
    auto it = _attempts.find(uid);
    return it == _attempts.end() ? nullptr : &it->second;
}

std::vector<TimelineEntry>
TraceIndex::blockTimeline(Addr block) const
{
    std::vector<TimelineEntry> out;
    auto it = _blockIdx.find(blockAddr(block));
    if (it == _blockIdx.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t i : it->second)
        out.push_back({i, _recAttempt[i]});
    return out;
}

std::vector<BlameLink>
TraceIndex::blameChain(std::uint64_t uid, std::size_t max_depth) const
{
    std::vector<BlameLink> chain;
    std::unordered_set<std::uint64_t> visited;
    while (chain.size() < max_depth && visited.insert(uid).second) {
        const Attempt *at = attempt(uid);
        if (!at || !at->aborted)
            break;
        BlameLink link;
        link.uid = uid;
        link.block = at->blameBlock;
        link.cause = at->abortCause;
        if (at->blameBlock != 0) {
            // The conflict winner: the most recent attempt other than
            // ours to touch the blamed block while still in flight at
            // the moment our abort fired.
            auto bit = _blockIdx.find(at->blameBlock);
            if (bit != _blockIdx.end()) {
                std::uint64_t fallback = 0;
                for (auto ri = bit->second.rbegin();
                     ri != bit->second.rend(); ++ri) {
                    if (_recs[*ri].seq >= at->endSeq)
                        continue;
                    std::uint64_t other = _recAttempt[*ri];
                    if (other == 0 || other == uid)
                        continue;
                    if (fallback == 0)
                        fallback = other;
                    const Attempt *oa = attempt(other);
                    if (oa && oa->endSeq > at->endSeq) {
                        link.winnerUid = other;
                        break;
                    }
                }
                if (link.winnerUid == 0)
                    link.winnerUid = fallback;
            }
        }
        chain.push_back(link);
        if (link.winnerUid == 0)
            break;
        uid = link.winnerUid;
        const Attempt *next = attempt(uid);
        if (!next || !next->aborted)
            break;
    }
    return chain;
}

std::vector<std::uint64_t>
TraceIndex::abortsUnderMark(Word mark) const
{
    std::vector<std::uint64_t> out;
    for (const auto &[uid, at] : _attempts)
        if (at.aborted && at.annotation && *at.annotation == mark)
            out.push_back(uid);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<AnnotationSpan>
TraceIndex::spansForMark(Word mark) const
{
    std::vector<AnnotationSpan> out;
    for (const AnnotationSpan &s : _spans)
        if (s.mark == mark)
            out.push_back(s);
    return out;
}

std::optional<std::vector<RepairDelta>>
TraceIndex::commitDiff(std::uint64_t commit_seq) const
{
    const Attempt *match = nullptr;
    for (const auto &[uid, at] : _attempts) {
        if (!at.committed)
            continue;
        if (at.endSeq == commit_seq ||
            (at.beginSeq <= commit_seq && commit_seq <= at.endSeq)) {
            match = &at;
            break;
        }
    }
    if (!match)
        return std::nullopt;
    std::vector<RepairDelta> out;
    for (std::size_t i : match->recordIdx) {
        const trace::Record &r = _recs[i];
        if (r.kind != trace::EventKind::Repair)
            continue;
        out.push_back({r.addr, r.a, r.b, r.hasSym, r.sym});
    }
    return out;
}

std::uint64_t
TraceIndex::attemptAtSeq(std::uint64_t seq) const
{
    auto it = std::lower_bound(
        _recs.begin(), _recs.end(), seq,
        [](const trace::Record &r, std::uint64_t s) {
            return r.seq < s;
        });
    if (it == _recs.end() || it->seq != seq)
        return 0;
    return _recAttempt[static_cast<std::size_t>(it - _recs.begin())];
}

TraceStats
TraceIndex::stats() const
{
    TraceStats st;
    st.records = _recs.size();
    if (!_recs.empty()) {
        st.firstCycle = _recs.front().cycle;
        st.lastCycle = _recs.back().cycle;
    }
    std::unordered_map<Addr, std::uint64_t> heat;
    for (const trace::Record &r : _recs) {
        ++st.kindCounts[static_cast<int>(r.kind)];
        switch (r.kind) {
          case trace::EventKind::TxBegin:
            ++st.attempts;
            break;
          case trace::EventKind::Commit:
            ++st.commits;
            break;
          case trace::EventKind::Abort:
            ++st.aborts;
            if (r.aux < 10)
                ++st.abortsByCause[r.aux];
            if (r.addr != 0)
                ++heat[blockAddr(r.addr)];
            break;
          case trace::EventKind::Repair:
            ++st.repairs;
            break;
          case trace::EventKind::Forward:
            ++st.forwards;
            break;
          case trace::EventKind::UserMark:
            ++st.marks;
            break;
          case trace::EventKind::BlockLost:
            ++heat[blockAddr(r.addr)];
            break;
          default:
            break;
        }
    }
    for (const auto &[block, n] : _overlaps) {
        heat[block] += n;
        st.overlaps += n;
    }
    st.distinctBlocks = _blockIdx.size();
    st.hotBlocks.assign(heat.begin(), heat.end());
    std::sort(st.hotBlocks.begin(), st.hotBlocks.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    return st;
}

} // namespace retcon::query
