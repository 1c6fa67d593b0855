#include "query/replay.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "trace/stream.hpp"

namespace retcon::query {

namespace {

/** One eager store awaiting commit or rollback. */
struct UndoEnt {
    Addr word = 0;
    std::optional<Word> old; ///< nullopt: word was unknown before.
    std::uint64_t order = 0; ///< Global apply order (newest-first key).
};

struct OfflineMemory {
    std::unordered_map<Addr, Word> words;
    std::unordered_map<CoreId, std::vector<UndoEnt>> undo;
    std::uint64_t applyOrder = 0;
    std::uint64_t seeded = 0;
    std::uint64_t unknownReads = 0;

    Word
    read(Addr a)
    {
        auto it = words.find(wordAddr(a));
        if (it == words.end()) {
            ++unknownReads;
            return 0;
        }
        return it->second;
    }

    void
    seed(Addr word, Word value)
    {
        if (words.emplace(wordAddr(word), value).second)
            ++seeded;
    }

    void
    store(CoreId core, Addr byte_addr, Word word_value)
    {
        Addr w = wordAddr(byte_addr);
        auto it = words.find(w);
        UndoEnt e;
        e.word = w;
        e.old = it == words.end() ? std::nullopt
                                  : std::optional<Word>(it->second);
        e.order = ++applyOrder;
        undo[core].push_back(e);
        words[w] = word_value;
    }

    /**
     * Roll back @p cores' eager stores as one merged, newest-first
     * unwind — the machine merges a DATM cascade's undo entries and
     * restores them in reverse global order, so interleaved writes to
     * one word land back on the pre-cascade value.
     */
    void
    rollback(const std::vector<CoreId> &cores)
    {
        std::vector<UndoEnt> all;
        for (CoreId c : cores) {
            auto it = undo.find(c);
            if (it == undo.end())
                continue;
            all.insert(all.end(), it->second.begin(), it->second.end());
            it->second.clear();
        }
        std::sort(all.begin(), all.end(),
                  [](const UndoEnt &a, const UndoEnt &b) {
                      return a.order > b.order;
                  });
        for (const UndoEnt &e : all) {
            if (e.old)
                words[e.word] = *e.old;
            else
                words.erase(e.word);
        }
    }

    void
    commit(CoreId core)
    {
        auto it = undo.find(core);
        if (it != undo.end())
            it->second.clear();
    }
};

} // namespace

/**
 * The incremental consumer owns everything the old whole-vector
 * replay held, but advances one record at a time: offline memory,
 * the validator, and the pending-abort cascade accumulator.
 */
struct StreamingReplay::Impl {
    OfflineMemory mem;
    trace::ReenactmentValidator validator;
    // Consecutive abort records form one machine step (a DATM abort
    // cascade); their rollbacks merge. Flushed before any other kind.
    std::vector<CoreId> pendingAborts;
    std::uint64_t peakOpen = 0;

    Impl()
        : validator([this](Addr a) { return mem.read(a); })
    {
    }

    void
    flushAborts()
    {
        if (!pendingAborts.empty()) {
            mem.rollback(pendingAborts);
            pendingAborts.clear();
        }
    }
};

StreamingReplay::StreamingReplay() : _impl(std::make_unique<Impl>()) {}

StreamingReplay::~StreamingReplay() = default;

void
StreamingReplay::onRecord(const trace::Record &r)
{
    Impl &im = *_impl;
    if (r.kind != trace::EventKind::Abort)
        im.flushAborts();

    // The validator observes the record against memory as it was
    // *before* the record's own effect (its commit-drain snapshot
    // must predate that commit's repairs).
    im.validator.onEvent(r);

    switch (r.kind) {
      case trace::EventKind::Load:
      case trace::EventKind::SymLoad:
      case trace::EventKind::Forward:
        im.mem.seed(r.addr, r.a);
        break;
      case trace::EventKind::Freeze:
      case trace::EventKind::Pin:
        im.mem.seed(r.addr, r.a);
        break;
      case trace::EventKind::Store:
        im.mem.store(r.core, r.addr, r.b);
        break;
      case trace::EventKind::Repair:
        // Drain writes are undo-logged by the machine too: an abort
        // after a partial drain restores them, so a repair is only
        // permanent once its commit record arrives.
        im.mem.store(r.core, r.addr, r.b);
        break;
      case trace::EventKind::Commit:
        im.mem.commit(r.core);
        break;
      case trace::EventKind::Abort:
        im.pendingAborts.push_back(r.core);
        break;
      default:
        break;
    }
    std::size_t open = im.validator.openAttempts();
    if (open > im.peakOpen)
        im.peakOpen = open;
}

std::size_t
StreamingReplay::openAttempts() const
{
    return _impl->validator.openAttempts();
}

ReplayResult
StreamingReplay::finish()
{
    Impl &im = *_impl;
    im.flushAborts();
    ReplayResult out;
    out.report = im.validator.report();
    out.seededWords = im.mem.seeded;
    out.unknownReads = im.mem.unknownReads;
    out.peakOpenAttempts = im.peakOpen;
    return out;
}

ReplayResult
replayValidate(const std::vector<trace::Record> &recs)
{
    StreamingReplay replay;
    for (const trace::Record &r : recs)
        replay.onRecord(r);
    return replay.finish();
}

StreamValidateResult
validateStreamFile(const std::string &path)
{
    StreamValidateResult out;
    StreamingReplay replay;
    trace::StreamReadResult read = trace::readStreamFile(
        path, [&replay](const trace::Record &r) { replay.onRecord(r); });
    out.streamOk = read.ok;
    out.error = read.error;
    out.recordsRead = read.records;
    out.replay = replay.finish();
    return out;
}

} // namespace retcon::query
