/**
 * @file
 * Constraint buffer: word-granularity interval constraints (Figure 5,
 * with the §4.4 interval representation).
 *
 * Each entry maps a root word address to the most restrictive interval
 * implied by every control-flow constraint recorded against it. The
 * buffer holds at most `capacity` distinct root addresses (16 in
 * Table 1); when full, new constraints fall back to compressed equality
 * bits in the IVB, which is sound but forfeits repairability for that
 * word.
 */

#ifndef RETCON_RETCON_CONSTRAINT_BUFFER_HPP
#define RETCON_RETCON_CONSTRAINT_BUFFER_HPP

#include <cstdint>
#include <unordered_map>

#include "retcon/interval.hpp"
#include "sim/types.hpp"

namespace retcon::rtc {

/** Fixed-capacity map: root word address -> Interval. No code reads
 *  its order, so it is a plain hash map. */
class ConstraintBuffer
{
  public:
    explicit ConstraintBuffer(std::size_t capacity)
        : _capacity(capacity)
    {}

    /** Outcome of attempting to record a constraint. */
    enum class Record {
        Ok,          ///< Captured in an interval.
        Full,        ///< No room: caller must set an equality bit.
        Unsat,       ///< Interval became empty: commit cannot succeed.
        Inexact,     ///< Interior NE: caller must set an equality bit.
    };

    /** Stable name for diagnostics and trace output. */
    static const char *
    recordName(Record r)
    {
        switch (r) {
          case Record::Ok: return "ok";
          case Record::Full: return "full";
          case Record::Unsat: return "unsat";
          case Record::Inexact: return "inexact";
        }
        return "?";
    }

    /**
     * Record `([root] OP k)` where k has already been normalized to the
     * root (i.e., the symbolic delta has been subtracted out).
     */
    Record
    record(Addr root, CmpOp op, std::int64_t k)
    {
        auto it = _map.find(root);
        if (it == _map.end()) {
            if (_map.size() >= _capacity)
                return Record::Full;
            it = _map.emplace(root, Interval{}).first;
        }
        Interval &iv = it->second;
        Interval saved = iv;
        if (!iv.constrain(op, k)) {
            iv = saved;
            return Record::Inexact;
        }
        if (iv.empty())
            return Record::Unsat;
        return Record::Ok;
    }

    /** True when @p value satisfies all constraints on @p root. */
    bool
    satisfied(Addr root, std::int64_t value) const
    {
        auto it = _map.find(root);
        return it == _map.end() || it->second.contains(value);
    }

    std::size_t size() const { return _map.size(); }

    void clear() { _map.clear(); }

  private:
    std::size_t _capacity;
    std::unordered_map<Addr, Interval> _map;
};

} // namespace retcon::rtc

#endif // RETCON_RETCON_CONSTRAINT_BUFFER_HPP
