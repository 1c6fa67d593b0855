#include "trace/recorder.hpp"

#include "sim/logging.hpp"

namespace retcon::trace {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::TxBegin: return "begin";
      case EventKind::Load: return "load";
      case EventKind::SymLoad: return "sym-load";
      case EventKind::Store: return "store";
      case EventKind::Forward: return "forward";
      case EventKind::SymStore: return "sym-store";
      case EventKind::Freeze: return "freeze";
      case EventKind::Pin: return "pin";
      case EventKind::Constraint: return "constraint";
      case EventKind::BlockLost: return "block-lost";
      case EventKind::CommitStart: return "commit-start";
      case EventKind::TokenWait: return "token-wait";
      case EventKind::CommitDrain: return "commit-drain";
      case EventKind::Repair: return "repair";
      case EventKind::Commit: return "commit";
      case EventKind::Abort: return "abort";
      case EventKind::UserMark: return "mark";
    }
    return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : _buf(capacity == 0 ? 1 : capacity)
{
}

void
TraceRecorder::onEvent(const Record &r)
{
    _buf[_head] = r;
    _head = (_head + 1) % _buf.size();
    if (_size < _buf.size())
        ++_size;
    ++_total;
}

void
TraceRecorder::forEach(const std::function<void(const Record &)> &fn) const
{
    std::size_t start = (_head + _buf.size() - _size) % _buf.size();
    for (std::size_t i = 0; i < _size; ++i)
        fn(_buf[(start + i) % _buf.size()]);
}

std::vector<Record>
TraceRecorder::snapshot() const
{
    std::vector<Record> out;
    out.reserve(_size);
    forEach([&out](const Record &r) { out.push_back(r); });
    return out;
}

void
TraceRecorder::clear()
{
    _head = 0;
    _size = 0;
    _total = 0;
}

} // namespace retcon::trace
