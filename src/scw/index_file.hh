/**
 * @file
 * The secondary (index) file: fixed-size records associating each
 * clause's codeword signature with its address in the compiled clause
 * file.  FS1 scans this file — much smaller than the clause file —
 * and emits the addresses of clauses whose codewords match the query.
 *
 * Record layout: signature wire form, then u32 clause offset, then
 * u32 clause ordinal.
 */

#ifndef CLARE_SCW_INDEX_FILE_HH
#define CLARE_SCW_INDEX_FILE_HH

#include <cstdint>
#include <vector>

#include "scw/codeword.hh"
#include "storage/clause_file.hh"
#include "support/shared_prefix.hh"

namespace clare::scw {

/** One decoded index entry. */
struct IndexEntry
{
    Signature signature;
    std::uint32_t clauseOffset = 0;
    std::uint32_t ordinal = 0;
};

/**
 * A contiguous half-open run of index entries — the unit of work one
 * FS1 scan worker takes.  Shards of one file are contiguous and
 * ordered, so concatenating per-shard hit lists in shard order
 * reproduces the sequential scan order exactly.
 */
struct EntryRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * An immutable secondary file image plus decode helpers.  The image is
 * a prefix of append-only storage that append() shares with the file
 * it extends (support::SharedPrefix).
 */
class SecondaryFile
{
  public:
    SecondaryFile() = default;

    /**
     * Build the secondary file for a compiled clause file from the
     * signatures of its clauses, in clause order.
     */
    static SecondaryFile build(const CodewordGenerator &generator,
                               const std::vector<Signature> &signatures,
                               const storage::ClauseFile &clauses);

    /**
     * Append one entry's wire form (signature, then the clause's
     * address) to @p out.
     */
    static void appendEntry(const CodewordGenerator &generator,
                            const Signature &signature,
                            const storage::ClauseRecord &clause,
                            std::vector<std::uint8_t> &out);

    /** Reconstruct from a persisted image (store loading path). */
    static SecondaryFile fromImage(std::vector<std::uint8_t> image,
                                   std::size_t entry_count,
                                   std::size_t entry_bytes);

    /**
     * This file followed by the serialized entries @p entries (a whole
     * number of entries): the live assertz path, byte-identical to
     * building the longer file, sharing this file's storage.
     */
    SecondaryFile append(std::span<const std::uint8_t> entries) const;

    support::PrefixView<std::uint8_t> image() const
    {
        return image_.view();
    }
    std::size_t entryCount() const { return count_; }
    std::size_t entryBytes() const { return entryBytes_; }
    support::StorageExtent storage() const { return image_.extent(); }

    /** Decode entry @p i (requires the generator that built it). */
    IndexEntry entry(const CodewordGenerator &generator,
                     std::size_t i) const;

    /**
     * Decode entry @p i into @p scratch, reusing its signature's field
     * vectors — the allocation-free variant the streaming scan loops
     * use (one scratch entry hoisted out of the loop).
     */
    void entryInto(const CodewordGenerator &generator, std::size_t i,
                   IndexEntry &scratch) const;

    /**
     * Partition the file into at most @p shards contiguous ranges of
     * near-equal size (never more ranges than entries; an empty file
     * yields no ranges).
     */
    std::vector<EntryRange> shardRanges(std::size_t shards) const;

    /** Bytes occupied by the entries of @p range. */
    std::size_t rangeBytes(const EntryRange &range) const
    {
        return range.size() * entryBytes_;
    }

  private:
    support::SharedPrefix<std::uint8_t> image_;
    std::size_t count_ = 0;
    std::size_t entryBytes_ = 0;
};

} // namespace clare::scw

#endif // CLARE_SCW_INDEX_FILE_HH
