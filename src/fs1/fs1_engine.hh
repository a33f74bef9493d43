/**
 * @file
 * The first stage filter (FS1): hardware index scanning over the
 * secondary file using superimposed codewords plus mask bits.
 *
 * The prototype described in the paper searches at up to 4.5 Mbyte/s
 * using PLAs and MSI parts.  This model applies the SCW+MB match rule
 * to every index entry streamed past it and collects the clause
 * addresses of the matches; its busy time is the scanned byte count
 * divided by the scan rate.  The caller (the Clause Retrieval Server)
 * combines that busy time with the disk streaming time — the engine
 * can only be as fast as the disk feeds it.
 *
 * Like the paper's single match unit, a search is one sequential pass:
 * the host scans the whole bit-sliced plane of the secondary file with
 * one word-parallel kernel on the calling thread (a live version scans
 * its base plane, then its delta plane).
 * One engine may be shared by several threads: search() is const.
 */

#ifndef CLARE_FS1_FS1_ENGINE_HH
#define CLARE_FS1_FS1_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"

namespace clare::fs1 {

/** FS1 configuration. */
struct Fs1Config
{
    /** Hardware scan rate in bytes per second (paper: 4.5 MB/s). */
    double scanRate = 4.5e6;
};

/** Outcome of one FS1 index scan. */
struct Fs1Result
{
    /** Clause-file offsets of the matching clauses, in file order. */
    std::vector<std::uint32_t> clauseOffsets;
    /** Clause ordinals of the matching clauses, in file order. */
    std::vector<std::uint32_t> ordinals;

    std::uint64_t entriesScanned = 0;
    std::uint64_t bytesScanned = 0;
    /**
     * Pure hardware time (bytes / scan rate), rounded to the nearest
     * tick.  A live version's base and delta bytes are summed *before*
     * the one conversion.
     */
    Tick busyTime = 0;
};

/**
 * The FS1 codeword-matching engine.
 *
 * Production scans run the word-parallel kernel over the bit-sliced
 * plane of the secondary file (PredicateStore builds or loads a plane
 * for every predicate).  The row-major scan, which decodes one entry
 * at a time as the paper's hardware streams it, survives only as the
 * oracle searchRowMajor() that tests and the paper-figure benches
 * compare against: both produce bit-identical results.
 */
class Fs1Engine
{
  public:
    explicit Fs1Engine(scw::CodewordGenerator generator,
                       Fs1Config config = {});

    const Fs1Config &config() const { return config_; }
    const scw::CodewordGenerator &generator() const { return generator_; }

    /**
     * Scan one predicate version against a query signature.  The
     * base plane @p sliced covers exactly entries [0, base_entries)
     * of @p index (it may be empty, or null when base_entries is 0)
     * and the delta mini-plane @p delta covers the appended tail
     * [base_entries, entryCount); with no delta, @p sliced covers the
     * whole file and @p base_entries is ignored.  The delta
     * plane's entries carry composite ordinals and clause offsets, so
     * base hits then delta hits reproduce the sequential order over
     * the composite file.  bytesScanned sums both parts before the
     * one ticks conversion, so busyTime is bit-identical to scanning
     * one full plane (or the row-major file).
     *
     * @param obs optional tracer/metrics sinks; a "fs1.scan" span
     *        wraps the search, and counters fs1.searches /
     *        fs1.entries_scanned / fs1.hits / fs1.bytes_scanned /
     *        fs1.sliced.word_ops accumulate in the registry
     * @param parent span the "fs1.scan" span nests under (0 = root)
     * @throws FatalError when the planes do not tile @p index
     */
    Fs1Result search(const scw::SecondaryFile &index,
                     const scw::BitSlicedIndex *sliced,
                     const scw::BitSlicedIndex *delta,
                     std::size_t base_entries,
                     const scw::Signature &query,
                     const obs::Observer &obs = {},
                     obs::SpanId parent = 0) const;

    /**
     * search() without sinks, in the signature that once also took a
     * worker pool and a shard count.  It exists only for the perfbench
     * replay's call (perfbench/replay.cc), which cannot change with
     * the library; it goes when ROADMAP item 3b deletes that replay.
     */
    Fs1Result search(const scw::SecondaryFile &index,
                     const scw::BitSlicedIndex *sliced,
                     const scw::BitSlicedIndex *delta,
                     std::size_t base_entries,
                     const scw::Signature &query, std::nullptr_t,
                     std::uint32_t) const
    {
        return search(index, sliced, delta, base_entries, query);
    }

    /**
     * Oracle: the row-major scan, decoding every entry of @p index
     * and applying the SCW+MB match rule to it.  Bit-identical to
     * search() in every Fs1Result field; it exists for tests and the
     * paper-figure benches, never for serving.
     */
    Fs1Result searchRowMajor(const scw::SecondaryFile &index,
                             const scw::Signature &query,
                             const obs::Observer &obs = {},
                             obs::SpanId parent = 0) const;

  private:
    /**
     * Complete a finished scan: its busy time, the fs1.* counters and
     * the attributes and ticks of its "fs1.scan" span.
     */
    void finish(Fs1Result &result, std::uint64_t word_ops,
                const obs::Observer &obs, obs::ScopedSpan &span) const;

    scw::CodewordGenerator generator_;
    Fs1Config config_;
};

} // namespace clare::fs1

#endif // CLARE_FS1_FS1_ENGINE_HH
