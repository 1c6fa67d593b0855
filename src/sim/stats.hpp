/**
 * @file
 * Lightweight statistics primitives used throughout the simulator.
 *
 * Table 3 of the paper reports "average (max)" pairs for structure
 * occupancy, so AvgMax is the workhorse here. Histogram supports the
 * distribution analyses in the benches.
 */

#ifndef RETCON_SIM_STATS_HPP
#define RETCON_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace retcon {

/** Running average + maximum tracker (Table 3 "avg (max)" columns). */
class AvgMax
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        _max = std::max(_max, v);
    }

    /** Mean of all samples, or 0 when empty. */
    double avg() const { return _count ? _sum / _count : 0.0; }

    /** Largest sample seen (correct for negative streams), or 0 when
     *  empty. */
    double max() const { return _count ? _max : 0.0; }

    /** Number of samples. */
    std::uint64_t count() const { return _count; }

    /** Sum of all samples. */
    double sum() const { return _sum; }

  private:
    /// Bootstrapping from -inf (not 0) keeps max() exact when every
    /// sample is negative.
    static constexpr double kNoMax =
        -std::numeric_limits<double>::infinity();

    double _sum = 0;
    std::uint64_t _count = 0;
    double _max = kNoMax;
};

/** Fixed-bucket histogram over integer samples. */
class Histogram
{
  public:
    /** @param num_buckets direct buckets [0, num_buckets); larger
     *  samples land in the overflow bucket, negative samples in the
     *  underflow bucket. */
    explicit Histogram(std::size_t num_buckets = 32)
        : _buckets(num_buckets, 0)
    {}

    void
    sample(std::int64_t v)
    {
        ++_total;
        if (v < 0)
            ++_underflow;
        else if (static_cast<std::uint64_t>(v) < _buckets.size())
            ++_buckets[static_cast<std::size_t>(v)];
        else
            ++_overflow;
    }

    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t total() const { return _total; }
    std::size_t size() const { return _buckets.size(); }

    /** Smallest v such that at least frac of samples are <= v. */
    std::uint64_t
    percentile(double frac) const
    {
        std::uint64_t need =
            static_cast<std::uint64_t>(frac * static_cast<double>(_total));
        std::uint64_t seen = _underflow; // Negatives precede bucket 0.
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen >= need)
                return i;
        }
        return _buckets.size();
    }

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _total = 0;
};

/** Named scalar counters (read back by name). */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, double delta = 1.0)
    {
        _values[name] += delta;
    }

    /** Current value of @p name (0 when absent). */
    double
    get(const std::string &name) const
    {
        auto it = _values.find(name);
        return it == _values.end() ? 0.0 : it->second;
    }

  private:
    std::map<std::string, double> _values;
};

} // namespace retcon

#endif // RETCON_SIM_STATS_HPP
