/**
 * @file
 * A small intrusive-free LRU cache template, the substrate of the
 * server's goal-result cache (crs/goal_cache.hh).
 *
 * The template is deliberately minimal and NOT thread-safe: the owner
 * wraps it in its own mutex.  Eviction is strict least-recently-used:
 * get() and put() both promote the touched entry to most-recent.
 */

#ifndef CLARE_SUPPORT_LRU_HH
#define CLARE_SUPPORT_LRU_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace clare::support {

/**
 * Capacity-bounded LRU map.  Keys must be hashable and equality-
 * comparable; values are stored by copy/move.  A capacity of 0 makes
 * every operation a no-op (the disabled state), so callers can keep
 * one code path for "cache off" and "cache on".
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity = 0) : capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return order_.size(); }
    bool enabled() const { return capacity_ > 0; }

    /** Cumulative evictions since construction. */
    std::uint64_t evictions() const { return evictions_; }

    /** Look up and promote; nullptr on miss (pointer stays valid
     *  until the next mutating call). */
    Value *
    get(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** Lookup without promotion. */
    bool
    contains(const Key &key) const
    {
        return map_.find(key) != map_.end();
    }

    /**
     * Insert or overwrite, promoting to most-recent.  Returns true
     * when the insertion evicted the least-recent entry.
     */
    bool
    put(Key key, Value value)
    {
        if (capacity_ == 0)
            return false;
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return false;
        }
        bool evicted = false;
        if (order_.size() >= capacity_) {
            map_.erase(order_.back().first);
            order_.pop_back();
            ++evictions_;
            evicted = true;
        }
        order_.emplace_front(std::move(key), std::move(value));
        map_.emplace(order_.front().first, order_.begin());
        return evicted;
    }

    /**
     * Remove every entry whose (key, value) satisfies @p pred — the
     * per-predicate invalidation primitive.  Returns the number of
     * entries removed.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t removed = 0;
        for (auto it = order_.begin(); it != order_.end();) {
            if (pred(it->first, it->second)) {
                map_.erase(it->first);
                it = order_.erase(it);
                ++removed;
            } else {
                ++it;
            }
        }
        return removed;
    }

  private:
    std::size_t capacity_;
    std::uint64_t evictions_ = 0;
    /** Most-recent first. */
    std::list<std::pair<Key, Value>> order_;
    std::unordered_map<Key,
                       typename std::list<std::pair<Key, Value>>::iterator,
                       Hash>
        map_;
};

} // namespace clare::support

#endif // CLARE_SUPPORT_LRU_HH
