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
 * The host scans the bit-sliced plane of the secondary file with a
 * word-parallel kernel.  The scan can be sharded: the plane is split
 * into contiguous entry ranges that are matched concurrently on a
 * worker pool, and the per-shard hit lists are concatenated in shard
 * order so the merged result is bit-identical to the sequential scan.
 * Counters accumulate per shard and fold into the fs1.* metrics once
 * at merge time.
 * One engine may be shared by several threads: search() is const.
 */

#ifndef CLARE_FS1_FS1_ENGINE_HH
#define CLARE_FS1_FS1_ENGINE_HH

#include <cstdint>
#include <vector>

#include "fs1/kernels.hh"
#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"
#include "support/thread_pool.hh"

namespace clare::fs1 {

/** FS1 configuration. */
struct Fs1Config
{
    /** Hardware scan rate in bytes per second (paper: 4.5 MB/s). */
    double scanRate = 4.5e6;

    /**
     * Block kernel for the plane scan: Auto (default) resolves to the
     * widest vector ISA the host supports; explicit choices must be
     * supported (CrsConfig::validate rejects the rest).  Every kernel
     * is bit-identical in answers, survivor order, scan stats, and
     * modeled busyTime — only host CPU cost changes.
     */
    Fs1Kernel kernel = Fs1Kernel::Auto;
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
    /** Shards the scan was split into (1 = sequential). */
    std::uint32_t shards = 1;
    /**
     * Pure hardware time (bytes / scan rate), rounded to the nearest
     * tick.  For a sharded scan the per-shard byte counts are summed
     * *before* conversion, so the total never loses a sub-tick
     * fraction per shard.
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
     * A delta-free scan is sharded into @p shards contiguous ranges on
     * @p pool (null or a 0-thread pool scans sequentially); the merge
     * is bit-identical to the sequential scan.
     *
     * @param obs optional tracer/metrics sinks; a "fs1.scan" span
     *        wraps the search with one "fs1.shard" child per shard,
     *        and counters fs1.searches / fs1.entries_scanned /
     *        fs1.hits / fs1.bytes_scanned accumulate in the registry
     * @param parent span the "fs1.scan" span nests under (0 = root)
     * @throws FatalError when the planes do not tile @p index
     */
    Fs1Result search(const scw::SecondaryFile &index,
                     const scw::BitSlicedIndex *sliced,
                     const scw::BitSlicedIndex *delta,
                     std::size_t base_entries,
                     const scw::Signature &query,
                     support::ThreadPool *pool, std::uint32_t shards,
                     const obs::Observer &obs = {},
                     obs::SpanId parent = 0) const;

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
    /** Hits and counters of one shard, merged in shard order. */
    struct ShardScan
    {
        std::vector<std::uint32_t> clauseOffsets;
        std::vector<std::uint32_t> ordinals;
        std::uint64_t entriesScanned = 0;
        std::uint64_t bytesScanned = 0;
        /** 64-bit plane operations (0 on the row-major oracle). */
        std::uint64_t wordOps = 0;
    };

    /**
     * Scan entries @p range of @p plane (a plane of a file with
     * @p entry_bytes-byte entries) as one "fs1.shard".
     *
     * @param prefix_bytes bytes scanned by the shards before this one,
     *        so the shard's span ticks can be computed as a difference
     *        of cumulative conversions (see busyTicks()) and per-shard
     *        span totals telescope exactly to the merged busyTime
     */
    ShardScan scanPlane(const scw::BitSlicedIndex &plane,
                        std::size_t entry_bytes,
                        const scw::Signature &query,
                        const scw::EntryRange &range,
                        std::uint64_t prefix_bytes,
                        const obs::Observer &obs,
                        obs::SpanId parent) const;

    /** Span attributes and span ticks shared by every shard. */
    void finishShard(const ShardScan &scan, obs::ScopedSpan &span,
                     std::uint64_t prefix_bytes) const;

    /** Cumulative bytes-to-ticks conversion shared by spans + merge. */
    Tick busyTicks(std::uint64_t bytes) const;

    Fs1Result merge(std::vector<ShardScan> shards,
                    const obs::Observer &obs) const;

    /** Fill the "fs1.scan" span of a finished search. */
    static void finishScan(const Fs1Result &result,
                           obs::ScopedSpan &span);

    scw::CodewordGenerator generator_;
    Fs1Config config_;
};

} // namespace clare::fs1

#endif // CLARE_FS1_FS1_ENGINE_HH
