/**
 * @file
 * The storage behind the IVB and the SSB (Figure 5): a
 * capacity-bounded table of entries keyed by address, kept in
 * insertion order.
 *
 * Insertion order is the order the commit walks the entries (the
 * pre-commit reacquire for the IVB, the drain for the SSB). Lookups go
 * through an address index, so a miss costs one hash probe; the scan
 * this replaces was hot once idealized RETCON grew the buffers far past
 * their Table 1 sizes (see bench/micro_structures).
 */

#ifndef RETCON_RETCON_BOUNDED_TABLE_HPP
#define RETCON_RETCON_BOUNDED_TABLE_HPP

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace retcon::rtc {

/** At most `capacity` entries, keyed by `Entry::*Key`, in insertion
 *  order. */
template <typename Entry, Addr Entry::*Key>
class BoundedTable
{
  public:
    explicit BoundedTable(std::size_t capacity) : _capacity(capacity) {}

    /** The entry keyed @p key, or nullptr. */
    Entry *
    find(Addr key)
    {
        auto it = _index.find(key);
        return it == _index.end() ? nullptr : &_entries[it->second];
    }

    const Entry *
    find(Addr key) const
    {
        auto it = _index.find(key);
        return it == _index.end() ? nullptr : &_entries[it->second];
    }

    bool full() const { return _entries.size() >= _capacity; }

    /** Append @p e, whose key must be absent; nullptr when full. */
    Entry *
    insert(const Entry &e)
    {
        if (full())
            return nullptr;
        bool fresh = _index.emplace(e.*Key, _entries.size()).second;
        sim_assert(fresh, "bounded table double insert");
        _entries.push_back(e);
        return &_entries.back();
    }

    /**
     * Drop the entry keyed @p key, if any. Later entries keep their
     * order and shift down, so the index is fixed up: O(n), but only
     * on a hit; the common miss is one hash probe.
     */
    void
    erase(Addr key)
    {
        auto it = _index.find(key);
        if (it == _index.end())
            return;
        std::size_t pos = it->second;
        _entries.erase(_entries.begin() + static_cast<std::ptrdiff_t>(pos));
        _index.erase(it);
        for (auto &[k, p] : _index)
            if (p > pos)
                --p;
    }

    /** Entries in insertion order (the commit's walk order). */
    std::vector<Entry> &entries() { return _entries; }
    const std::vector<Entry> &entries() const { return _entries; }

    std::size_t size() const { return _entries.size(); }

    void
    clear()
    {
        _entries.clear();
        _index.clear();
    }

  private:
    std::size_t _capacity;
    std::vector<Entry> _entries;
    /// key -> position in _entries, kept in step by insert and erase.
    std::unordered_map<Addr, std::size_t> _index;
};

} // namespace retcon::rtc

#endif // RETCON_RETCON_BOUNDED_TABLE_HPP
