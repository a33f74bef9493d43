/**
 * @file
 * L2b of the retrieval cache hierarchy: memoized FS1 survivor sets.
 *
 * An FS1 scan is a pure function of (query signature, secondary
 * file), so its result — the surviving clause ordinals and offsets,
 * plus the scan statistics — can be replayed for a repeated signature
 * without streaming the index again.  Entries are keyed by the
 * serialized signature bytes plus the index *generation* (a counter
 * the CRS bumps whenever a predicate's index changes), so a stale
 * survivor set simply never matches its key again and ages out of the
 * LRU.
 *
 * The memo stores the merged Fs1Result verbatim, including
 * entriesScanned / bytesScanned / busyTime, so a replayed response's
 * payload is bit-identical to a recomputed one; only the charged
 * index time differs (the CRS charges a memory-lookup cost instead of
 * the scan).
 */

#ifndef CLARE_FS1_SURVIVOR_CACHE_HH
#define CLARE_FS1_SURVIVOR_CACHE_HH

#include <memory>
#include <mutex>
#include <string>

#include "fs1/fs1_engine.hh"
#include "support/lru.hh"
#include "support/obs.hh"

namespace clare::fs1 {

/** (signature bytes, index generation) → merged Fs1Result memo. */
class SurvivorCache
{
  public:
    explicit SurvivorCache(std::size_t capacity);

    /**
     * Look up a memoized survivor set; counts fs1.cache.survivor_hits
     * / fs1.cache.survivor_misses into @p obs when provided.  Only
     * the shared_ptr is copied under the lock — the replay payload
     * (ordinal/offset vectors) is shared, and a caller that needs a
     * mutable copy makes it outside the mutex.  Null on miss.
     */
    std::shared_ptr<const Fs1Result> find(const std::string &key,
                                          const obs::Observer &obs = {});

    /** Memoize a merged scan result; returns true on eviction. */
    bool put(const std::string &key, const Fs1Result &result);

    std::size_t size() const;

    void clear();

  private:
    mutable std::mutex mutex_;
    support::LruCache<std::string, std::shared_ptr<const Fs1Result>> cache_;
};

} // namespace clare::fs1

#endif // CLARE_FS1_SURVIVOR_CACHE_HH
