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

void
Fs1Engine::finish(Fs1Result &result, std::uint64_t word_ops,
                  const obs::Observer &obs, obs::ScopedSpan &span) const
{
    // One conversion of the total bytes, rounded to the nearest tick.
    result.busyTime = static_cast<Tick>(std::llround(
        static_cast<double>(result.bytesScanned) / config_.scanRate *
        static_cast<double>(kSecond)));

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
    if (span.active()) {
        span.attr("entries", result.entriesScanned);
        span.attr("hits",
                  static_cast<std::uint64_t>(result.ordinals.size()));
        span.attr("bytes", result.bytesScanned);
        span.attr("word_ops", word_ops);
        span.setSimTicks(result.busyTime);
    }
}

Fs1Result
Fs1Engine::search(const scw::SecondaryFile &index,
                  const scw::BitSlicedIndex *sliced,
                  const scw::BitSlicedIndex *delta,
                  std::size_t base_entries,
                  const scw::Signature &query,
                  const obs::Observer &obs, obs::SpanId parent) const
{
    const std::size_t count = index.entryCount();
    const std::size_t base_plane =
        sliced != nullptr ? sliced->entryCount() : 0;
    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);

    SlicedMatcher::Hits hits;
    if (delta == nullptr) {
        if (sliced == nullptr || base_plane != count)
            clare_fatal("FS1 plane (%zu entries) does not cover an index "
                        "of %zu entries", base_plane, count);
        hits = SlicedMatcher::scan(*sliced, query);
    } else {
        // Live (base + delta) version: the planes must tile the
        // composite file exactly, and the delta's entries carry
        // composite addresses, so base hits then delta hits are the
        // sequential order.
        if (base_plane != base_entries ||
            base_entries + delta->entryCount() != count)
            clare_fatal("FS1 planes (base %zu + delta %zu entries) do "
                        "not tile an index of %zu entries",
                        base_plane, delta->entryCount(), count);
        if (base_entries > 0)
            hits = SlicedMatcher::scan(*sliced, query);
        SlicedMatcher::Hits tail = SlicedMatcher::scan(*delta, query);
        hits.clauseOffsets.insert(hits.clauseOffsets.end(),
                                  tail.clauseOffsets.begin(),
                                  tail.clauseOffsets.end());
        hits.ordinals.insert(hits.ordinals.end(), tail.ordinals.begin(),
                             tail.ordinals.end());
        hits.wordOps += tail.wordOps;
        if (span.active())
            span.attr("delta_entries", static_cast<std::uint64_t>(
                          delta->entryCount()));
    }

    Fs1Result result;
    result.clauseOffsets = std::move(hits.clauseOffsets);
    result.ordinals = std::move(hits.ordinals);
    result.entriesScanned = count;
    result.bytesScanned =
        static_cast<std::uint64_t>(count) * index.entryBytes();
    finish(result, hits.wordOps, obs, span);
    return result;
}

Fs1Result
Fs1Engine::searchRowMajor(const scw::SecondaryFile &index,
                          const scw::Signature &query,
                          const obs::Observer &obs,
                          obs::SpanId parent) const
{
    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);
    Fs1Result result;
    // Decode entries into one scratch register hoisted out of the
    // loop (no per-entry allocation).
    scw::IndexEntry entry;
    for (std::size_t i = 0; i < index.entryCount(); ++i) {
        index.entryInto(generator_, i, entry);
        if (generator_.matches(query, entry.signature)) {
            result.clauseOffsets.push_back(entry.clauseOffset);
            result.ordinals.push_back(entry.ordinal);
        }
    }
    result.entriesScanned = index.entryCount();
    result.bytesScanned = index.image().size();
    finish(result, 0, obs, span);
    return result;
}

} // namespace clare::fs1
