/**
 * @file
 * Conflict predictor deciding which blocks invoke value-based and
 * symbolic tracking (§5.1).
 *
 * The predictor trains up from observed conflicts: once a block has
 * caused at least `kTrainUpThreshold` (1) conflict it is tracked. A
 * violated constraint at commit "trains down aggressively": the block
 * must be observed in `trainDownConflicts` (100) further conflicts
 * before symbolic tracking is attempted again, which keeps transactions
 * from repeatedly elongating only to abort at the commit-time check.
 */

#ifndef RETCON_RETCON_PREDICTOR_HPP
#define RETCON_RETCON_PREDICTOR_HPP

#include <cstdint>
#include <unordered_map>

#include "sim/types.hpp"

namespace retcon::rtc {

/** Per-block conflict-history predictor. */
class ConflictPredictor
{
  public:
    /** Conflicts on a block before it is tracked. */
    static constexpr std::uint32_t kTrainUpThreshold = 1;

    struct Config {
        std::uint32_t trainDownConflicts = 100;
    };

    ConflictPredictor() : _cfg() {}
    explicit ConflictPredictor(const Config &cfg) : _cfg(cfg) {}

    /** Should loads/stores to @p block use symbolic tracking? */
    bool
    shouldTrack(Addr block) const
    {
        auto it = _table.find(block);
        if (it == _table.end())
            return false;
        const State &s = it->second;
        return s.conflicts >= kTrainUpThreshold && s.cooldown == 0;
    }

    /** A conflict was observed on @p block (any transaction). */
    void
    observeConflict(Addr block)
    {
        State &s = _table[block];
        ++s.conflicts;
        if (s.cooldown > 0)
            --s.cooldown;
    }

    /** A commit-time constraint on @p block was violated. */
    void
    observeViolation(Addr block)
    {
        State &s = _table[block];
        s.cooldown = _cfg.trainDownConflicts;
        ++s.violations;
    }

    /** Total constraint violations recorded (stats). */
    std::uint64_t
    totalViolations() const
    {
        std::uint64_t n = 0;
        for (const auto &[a, s] : _table)
            n += s.violations;
        return n;
    }

  private:
    struct State {
        std::uint32_t conflicts = 0;
        std::uint32_t cooldown = 0;
        std::uint64_t violations = 0;
    };

    Config _cfg;
    std::unordered_map<Addr, State> _table;
};

} // namespace retcon::rtc

#endif // RETCON_RETCON_PREDICTOR_HPP
