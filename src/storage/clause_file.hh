/**
 * @file
 * The compiled clause file: one predicate's clauses in PIF, in source
 * order, framed for on-the-fly filtering.
 *
 * "Predicates with the same functor names and arities are stored in a
 * compiled clause file" (section 2.1).  Each record carries the
 * compiled head-argument stream that FS2 matches, plus the clause's
 * source text so the host can reconstruct the full clause (head and
 * body) for final unification and resolution after retrieval.
 *
 * Record wire layout (little endian):
 *
 *   u32 ordinal       clause position within the predicate
 *   u32 functor       symbol-table offset of the head functor
 *   u8  arity
 *   u8  flags         bit0 = fact (no body), bit1 = ground fact
 *   u16 itemCount     number of PIF items that follow
 *   u32 itemBytes     wire size of the PIF items
 *   u32 sourceBytes   length of the source text
 *   ...PIF items...
 *   ...source text...
 */

#ifndef CLARE_STORAGE_CLAUSE_FILE_HH
#define CLARE_STORAGE_CLAUSE_FILE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pif/encoder.hh"
#include "support/shared_prefix.hh"
#include "term/clause.hh"
#include "term/term_writer.hh"

namespace clare::storage {

/** Size of the fixed record header in bytes. */
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 1 + 1 + 2 + 4 + 4;

/** Per-clause directory entry of a clause file. */
struct ClauseRecord
{
    std::uint32_t ordinal = 0;
    std::uint32_t offset = 0;       ///< byte offset of the record
    std::uint32_t length = 0;       ///< total record bytes
    std::uint32_t functor = 0;
    std::uint8_t arity = 0;
    std::uint8_t flags = 0;
    std::uint16_t itemCount = 0;

    bool isFact() const { return flags & 0x01; }
    bool isGroundFact() const { return flags & 0x02; }
};

/**
 * An immutable compiled clause file plus its record directory.
 *
 * The byte image is what the disk stores and the filters stream; the
 * directory is what the host (and FS1's address list) uses to fetch
 * individual clauses.  Both are prefixes of append-only storage that
 * concat() shares with the base file (support::SharedPrefix).
 */
class ClauseFile
{
  public:
    ClauseFile() = default;

    support::PrefixView<std::uint8_t> image() const
    {
        return image_.view();
    }
    std::size_t clauseCount() const { return records_.size(); }
    const ClauseRecord &record(std::size_t i) const;

    /** Storage blocks of the image and the record directory. */
    std::array<support::StorageExtent, 2> storage() const
    {
        return {image_.extent(), records_.extent()};
    }

    term::PredicateId predicate() const { return predicate_; }

    /** Decode the compiled head-argument stream of clause @p i. */
    pif::EncodedArgs decodeArgs(std::size_t i) const;

    /**
     * Decode the argument stream of record @p rec into @p out,
     * replacing its contents.  Reusing one @p out across records keeps
     * a full scan free of heap traffic once its vectors are warm.
     * @throws CorruptionError when the stored bytes are not a
     *         well-formed database stream of the record's arity
     */
    void decodeArgsInto(const ClauseRecord &rec,
                        pif::EncodedArgs &out) const;

    /** The stored source text of clause @p i. */
    std::string sourceText(std::size_t i) const;

    /** Parse one record starting at @p offset of an arbitrary image. */
    static ClauseRecord parseHeader(std::span<const std::uint8_t> image,
                                    std::size_t offset);

    /**
     * Concatenate two clause files of one predicate into a composite
     * whose byte image equals base.image() + tail.image() — the live
     * write path appends assertz deltas this way.  The tail must have
     * been built with first_ordinal == base.clauseCount() (the record
     * ordinals live inside the wire bytes, so numbering is fixed at
     * build time); the result is then byte-identical to rebuilding
     * the whole predicate from scratch.  An empty base yields tail.
     * The composite shares base's storage, so the copying is
     * O(tail) except when that storage has to grow.
     */
    static ClauseFile concat(const ClauseFile &base,
                             const ClauseFile &tail);

  private:
    friend class ClauseFileBuilder;
    friend ClauseFile loadClauseFile(const std::string &path);

    term::PredicateId predicate_;
    support::SharedPrefix<std::uint8_t> image_;
    support::SharedPrefix<ClauseRecord> records_;
};

/** Builds a clause file for one predicate, preserving clause order. */
class ClauseFileBuilder
{
  public:
    /**
     * @param writer renders clause source text for the host-side copy
     * @param first_ordinal ordinal of the first clause added — the
     *        live write path builds *delta* files whose numbering
     *        continues a base file's, so ClauseFile::concat yields an
     *        image byte-identical to a from-scratch rebuild
     */
    explicit ClauseFileBuilder(const term::TermWriter &writer,
                               std::uint32_t first_ordinal = 0)
        : writer_(writer), firstOrdinal_(first_ordinal)
    {}

    /**
     * Append a clause; all clauses must share one predicate.
     * @return its directory entry (offset relative to this file)
     */
    ClauseRecord add(const term::ClauseView &clause);
    ClauseRecord add(const term::Clause &clause)
    {
        return add(clause.view());
    }

    /** Number of clauses added so far. */
    std::size_t size() const { return records_.size(); }

    /** Finish and return the file (builder becomes empty). */
    ClauseFile finish();

  private:
    const term::TermWriter &writer_;
    pif::Encoder encoder_;
    /** Per-clause scratch, reused from one clause to the next. */
    pif::EncodedArgs args_;
    std::string source_;
    term::PredicateId predicate_;
    std::vector<std::uint8_t> image_;
    std::vector<ClauseRecord> records_;
    bool havePredicate_ = false;
    std::uint32_t firstOrdinal_ = 0;
};

} // namespace clare::storage

#endif // CLARE_STORAGE_CLAUSE_FILE_HH
