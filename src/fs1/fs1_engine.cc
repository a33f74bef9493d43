#include "fs1/fs1_engine.hh"

#include <cmath>
#include <utility>

#include "fs1/sliced_matcher.hh"
#include "support/logging.hh"

namespace clare::fs1 {

Fs1Engine::Fs1Engine(scw::CodewordGenerator generator, Fs1Config config)
    : generator_(std::move(generator)), config_(config)
{
}

Tick
Fs1Engine::busyTicks(std::uint64_t bytes) const
{
    return static_cast<Tick>(std::llround(
        static_cast<double>(bytes) / config_.scanRate *
        static_cast<double>(kSecond)));
}

void
Fs1Engine::finishShard(const ShardScan &scan, obs::ScopedSpan &span,
                       std::uint64_t prefix_bytes) const
{
    if (!span.active())
        return;
    span.attr("entries", scan.entriesScanned);
    span.attr("hits", static_cast<std::uint64_t>(scan.ordinals.size()));
    span.attr("bytes", scan.bytesScanned);
    span.attr("word_ops", scan.wordOps);
    // This shard's share of the device busy time, computed as a
    // difference of *cumulative* conversions: shards are contiguous,
    // so the per-shard spans telescope to exactly the merged busyTime
    // (an independent per-shard conversion could drift from the
    // summed total by a sub-tick per shard).
    span.setSimTicks(busyTicks(prefix_bytes + scan.bytesScanned) -
                     busyTicks(prefix_bytes));
}

Fs1Engine::ShardScan
Fs1Engine::scanPlane(const scw::BitSlicedIndex &plane,
                     std::size_t entry_bytes,
                     const scw::Signature &query,
                     const scw::EntryRange &range,
                     std::uint64_t prefix_bytes,
                     const obs::Observer &obs, obs::SpanId parent) const
{
    // Shard scans run on pool workers, so the parent is explicit (the
    // thread-local current span belongs to whatever that worker last
    // ran).
    obs::ScopedSpan span(obs.tracer, "fs1.shard", parent);
    // Shard ranges need not be word-aligned; the matcher edge-masks
    // partial words, so per-shard hit lists still concatenate into
    // exactly the sequential order.
    SlicedMatcher::Hits hits =
        SlicedMatcher(config_.kernel).scanRange(plane, query, range);
    ShardScan scan;
    scan.clauseOffsets = std::move(hits.clauseOffsets);
    scan.ordinals = std::move(hits.ordinals);
    scan.wordOps = hits.wordOps;
    scan.entriesScanned = range.size();
    scan.bytesScanned = range.size() * entry_bytes;
    finishShard(scan, span, prefix_bytes);
    return scan;
}

Fs1Result
Fs1Engine::merge(std::vector<ShardScan> shards,
                 const obs::Observer &obs) const
{
    Fs1Result result;
    result.shards = shards.empty()
        ? 1 : static_cast<std::uint32_t>(shards.size());
    std::uint64_t word_ops = 0;
    // Shards are contiguous and processed here in shard order, so the
    // concatenation reproduces the sequential scan order exactly.
    for (ShardScan &scan : shards) {
        if (result.ordinals.empty()) {
            result.clauseOffsets = std::move(scan.clauseOffsets);
            result.ordinals = std::move(scan.ordinals);
        } else {
            result.clauseOffsets.insert(result.clauseOffsets.end(),
                                        scan.clauseOffsets.begin(),
                                        scan.clauseOffsets.end());
            result.ordinals.insert(result.ordinals.end(),
                                   scan.ordinals.begin(),
                                   scan.ordinals.end());
        }
        result.entriesScanned += scan.entriesScanned;
        result.bytesScanned += scan.bytesScanned;
        word_ops += scan.wordOps;
    }
    // Sum bytes across shards first, then convert once, rounding to
    // the nearest tick: truncating the cast undercounted by up to one
    // tick per conversion, compounding across sharded sub-scans.
    // finishShard() derives each shard's span from the same cumulative
    // conversion, so the per-shard span ticks sum to exactly this.
    result.busyTime = busyTicks(result.bytesScanned);

    // One metrics update per search, not per shard: workers accumulate
    // into their ShardScan and the merge folds the totals in.
    if (obs.metrics != nullptr) {
        ++obs.metrics->counter("fs1.searches",
                               "FS1 index scans performed");
        obs.metrics->counter("fs1.entries_scanned",
                             "index entries examined") +=
            result.entriesScanned;
        obs.metrics->counter("fs1.hits",
                             "entries passing the codeword match") +=
            result.ordinals.size();
        obs.metrics->counter("fs1.bytes_scanned",
                             "secondary file bytes streamed") +=
            result.bytesScanned;
        obs.metrics->counter("fs1.sliced.word_ops",
                             "64-bit plane operations in sliced "
                             "scans") += word_ops;
    }
    return result;
}

void
Fs1Engine::finishScan(const Fs1Result &result, obs::ScopedSpan &span)
{
    if (!span.active())
        return;
    span.attr("shards", static_cast<std::uint64_t>(result.shards));
    span.attr("hits", static_cast<std::uint64_t>(result.ordinals.size()));
    span.setSimTicks(result.busyTime);
}

Fs1Result
Fs1Engine::search(const scw::SecondaryFile &index,
                  const scw::BitSlicedIndex *sliced,
                  const scw::BitSlicedIndex *delta,
                  std::size_t base_entries,
                  const scw::Signature &query,
                  support::ThreadPool *pool, std::uint32_t shards,
                  const obs::Observer &obs, obs::SpanId parent) const
{
    const std::size_t entry_bytes = index.entryBytes();
    const std::size_t count = index.entryCount();
    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);
    std::vector<ShardScan> scans;

    if (delta != nullptr) {
        // Live (base + delta) version: the planes must tile the
        // composite file exactly.  The base part is unsharded — the
        // delta is small and the split already bounds the work.
        const std::size_t base_plane =
            sliced != nullptr ? sliced->entryCount() : 0;
        if (base_plane != base_entries ||
            base_entries + delta->entryCount() != count)
            clare_fatal("FS1 planes (base %zu + delta %zu entries) do "
                        "not tile an index of %zu entries",
                        base_plane, delta->entryCount(), count);
        if (base_entries > 0)
            scans.push_back(scanPlane(*sliced, entry_bytes, query,
                                      scw::EntryRange{0, base_entries},
                                      0, obs, span.id()));
        scans.push_back(scanPlane(
            *delta, entry_bytes, query,
            scw::EntryRange{0, delta->entryCount()},
            base_entries * entry_bytes, obs, span.id()));
        Fs1Result result = merge(std::move(scans), obs);
        finishScan(result, span);
        if (span.active())
            span.attr("delta_entries", static_cast<std::uint64_t>(
                          delta->entryCount()));
        return result;
    }

    if (sliced == nullptr || sliced->entryCount() != count)
        clare_fatal("FS1 plane (%zu entries) does not cover an index "
                    "of %zu entries",
                    sliced != nullptr ? sliced->entryCount() : 0, count);
    std::vector<scw::EntryRange> ranges;
    if (pool != nullptr && pool->threadCount() > 0 && shards > 1)
        ranges = index.shardRanges(shards);
    if (ranges.size() <= 1) {
        scans.push_back(scanPlane(*sliced, entry_bytes, query,
                                  scw::EntryRange{0, count}, 0, obs,
                                  span.id()));
    } else {
        scans.resize(ranges.size());
        // Cumulative byte offsets of each shard, for the telescoping
        // span-tick conversion (shards are contiguous and ordered).
        std::vector<std::uint64_t> prefix(ranges.size(), 0);
        for (std::size_t s = 1; s < ranges.size(); ++s)
            prefix[s] = prefix[s - 1] + ranges[s - 1].size() * entry_bytes;
        pool->parallelFor(ranges.size(), [&](std::size_t s) {
            scans[s] = scanPlane(*sliced, entry_bytes, query, ranges[s],
                                 prefix[s], obs, span.id());
        });
    }
    Fs1Result result = merge(std::move(scans), obs);
    finishScan(result, span);
    return result;
}

Fs1Result
Fs1Engine::searchRowMajor(const scw::SecondaryFile &index,
                          const scw::Signature &query,
                          const obs::Observer &obs,
                          obs::SpanId parent) const
{
    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);
    ShardScan scan;
    {
        obs::ScopedSpan shard(obs.tracer, "fs1.shard", span.id());
        // Decode entries into one scratch register hoisted out of the
        // loop (no per-entry allocation).
        scw::IndexEntry entry;
        for (std::size_t i = 0; i < index.entryCount(); ++i) {
            index.entryInto(generator_, i, entry);
            if (generator_.matches(query, entry.signature)) {
                scan.clauseOffsets.push_back(entry.clauseOffset);
                scan.ordinals.push_back(entry.ordinal);
            }
        }
        scan.entriesScanned = index.entryCount();
        scan.bytesScanned = index.image().size();
        finishShard(scan, shard, 0);
    }
    std::vector<ShardScan> one;
    one.push_back(std::move(scan));
    Fs1Result result = merge(std::move(one), obs);
    finishScan(result, span);
    return result;
}

} // namespace clare::fs1
