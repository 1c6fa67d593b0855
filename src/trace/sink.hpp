/**
 * @file
 * TraceSink: the subscription point for provenance events.
 *
 * The TM machine holds one nullable sink pointer. With no sink
 * attached, instrumentation reduces to a single null check per
 * event site and no Record is ever constructed (zero cost when
 * disabled). MultiSink fans one event stream out to several
 * consumers (e.g. an in-memory capture plus the reenactment
 * validator); CaptureSink keeps a whole run's records in memory.
 */

#ifndef RETCON_TRACE_SINK_HPP
#define RETCON_TRACE_SINK_HPP

#include <vector>

#include "trace/event.hpp"

namespace retcon::trace {

/** Consumer of the provenance event stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called synchronously at every instrumented machine event. */
    virtual void onEvent(const Record &r) = 0;
};

/** Fan-out sink: forwards each event to every registered child. */
class MultiSink final : public TraceSink
{
  public:
    /** Register a child (non-owning; may not be null). */
    void add(TraceSink *child)
    {
        if (child)
            _children.push_back(child);
    }

    void
    onEvent(const Record &r) override
    {
        for (TraceSink *c : _children)
            c->onEvent(r);
    }

    std::size_t size() const { return _children.size(); }

  private:
    std::vector<TraceSink *> _children;
};

/**
 * Append-only in-memory capture: every record, in arrival order, with
 * nothing dropped however long the run.
 */
class CaptureSink final : public TraceSink
{
  public:
    /** Append to @p out, which must outlive the sink's last event. */
    explicit CaptureSink(std::vector<Record> &out) : _out(out) {}

    void onEvent(const Record &r) override { _out.push_back(r); }

  private:
    std::vector<Record> &_out;
};

} // namespace retcon::trace

#endif // RETCON_TRACE_SINK_HPP
