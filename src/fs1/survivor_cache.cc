#include "fs1/survivor_cache.hh"

namespace clare::fs1 {

SurvivorCache::SurvivorCache(std::size_t capacity) : cache_(capacity)
{
}

std::shared_ptr<const Fs1Result>
SurvivorCache::find(const std::string &key, const obs::Observer &obs)
{
    std::shared_ptr<const Fs1Result> found;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (std::shared_ptr<const Fs1Result> *r = cache_.get(key))
            found = *r;
    }
    if (obs.metrics != nullptr) {
        if (found)
            ++obs.metrics->counter("fs1.cache.survivor_hits",
                                   "index scans replayed from the "
                                   "survivor memo");
        else
            ++obs.metrics->counter("fs1.cache.survivor_misses",
                                   "index scans that ran the secondary "
                                   "file");
    }
    return found;
}

bool
SurvivorCache::put(const std::string &key, const Fs1Result &result)
{
    auto memo = std::make_shared<const Fs1Result>(result);
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.put(key, std::move(memo));
}

std::size_t
SurvivorCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

void
SurvivorCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

} // namespace clare::fs1
