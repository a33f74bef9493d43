/**
 * @file
 * Disk-resident predicate storage managed by the CRS: per predicate, a
 * compiled clause file plus its secondary (codeword) file, laid out on
 * a modeled disk.
 */

#ifndef CLARE_CRS_STORE_HH
#define CLARE_CRS_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"
#include "storage/clause_file.hh"
#include "storage/disk_model.hh"
#include "support/shared_prefix.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "term/term_writer.hh"

namespace clare::crs {

/**
 * The decoded clauses appended by assertz commits since a version's
 * base decoded table was built.  Each commit adds one link holding
 * its own clauses, in their stored form, chained to its predecessor's
 * link, which keeps the earlier clauses alive; a flat directory of
 * views, shared append-only along the chain, gives O(1) lookup.  A
 * commit therefore neither re-decodes nor copies the earlier delta
 * clauses.
 */
class DecodedDelta
{
  public:
    /** @p prev's clauses (none when null) followed by @p clauses. */
    DecodedDelta(std::shared_ptr<const DecodedDelta> prev,
                 std::vector<term::Clause> clauses);
    ~DecodedDelta();

    DecodedDelta(const DecodedDelta &) = delete;
    DecodedDelta &operator=(const DecodedDelta &) = delete;

    std::size_t size() const { return views_.size(); }
    term::ClauseView view(std::size_t i) const { return views_[i]; }

    /** Heap bytes this link holds beyond what its predecessor holds. */
    std::size_t bytesBeyondPrev() const;

  private:
    /**
     * Mutable only so the destructor can unlink a long chain
     * iteratively instead of recursing once per commit.
     */
    mutable std::shared_ptr<const DecodedDelta> prev_;
    std::vector<term::Clause> clauses_;
    support::SharedPrefix<term::ClauseView> views_;
};

/** One predicate's on-disk artifacts. */
struct StoredPredicate
{
    storage::ClauseFile clauses;
    scw::SecondaryFile index;
    std::uint64_t clauseFileOffset = 0; ///< placement on the data disk
    std::uint64_t indexFileOffset = 0;  ///< placement on the index disk

    /** Fraction of clauses that are rules (body-carrying). */
    double ruleFraction = 0.0;
    /** Clauses that are rules; an assertz commit carries it forward. */
    std::size_t rules = 0;

    /** Set `rules` and the `ruleFraction` it makes of `clauses`. */
    void setRules(std::size_t rule_count);

    /**
     * CRC-32 of each 4 KB page of the secondary file image, computed
     * as the version is built.  The CRS verifies delivered index pages
     * against these so a corrupted index degrades the query to a full
     * scan instead of matching garbage codewords.
     */
    std::vector<std::uint32_t> indexPageCrcs;

    /**
     * Transposed (bit-sliced) plane of the secondary file, scanned by
     * the word-parallel FS1 kernel.  Loaded from a v3 store or built
     * with the version, so every published version has one.  Shared
     * so concurrent readers can hold it without copying.
     */
    std::shared_ptr<const scw::BitSlicedIndex> sliced;

    /**
     * MVCC generation this version was published at.  0 = the
     * load-time version each chain opens with; live commits publish
     * versions stamped with monotonically increasing generations.
     */
    std::uint64_t generation = 0;

    /**
     * Entries of `index` covered by the base `sliced` plane while
     * `deltaSliced` is set.  A live assertz commit appends new clauses
     * to the base images without rebuilding the (large) base plane;
     * the tail [baseEntries, entryCount) is covered by `deltaSliced`
     * instead, and baseEntries may then be 0 (an emptied predicate
     * growing again).  Without a delta it is 0 and unused: `sliced`
     * covers the whole index.
     */
    std::size_t baseEntries = 0;

    /**
     * LSM-flavored delta mini-plane over the index tail appended since
     * the base plane was built.  Each commit extends its
     * predecessor's delta by only the new entries; a compaction folds
     * it into a fresh full plane (a checkpoint does so in the
     * persisted copy only).  Null when the version carries no
     * un-sliced tail.
     */
    std::shared_ptr<const scw::BitSlicedIndex> deltaSliced;

    /**
     * Decoded clauses (heads and bodies) in one shared arena, for host
     * unification and the knowledge base: the first decoded->size()
     * clauses, each equal to its source text parsed (a build copies
     * each in its stored form, a load parses each record once).  Like
     * `sliced` it is built with the version and shared untouched by the
     * versions of later assertz commits.
     */
    std::shared_ptr<const term::ClauseTable> decoded;

    /**
     * Decoded tail appended by assertz commits since `decoded` was
     * built (the clause-side twin of deltaSliced); null when none.
     */
    std::shared_ptr<const DecodedDelta> decodedDelta;

    /** Clause @p ordinal of this version, from the decoded tables. */
    term::ClauseView decodedClause(std::uint32_t ordinal) const;
};

/**
 * The decoded table of every clause of @p file, each parsed once from
 * its source text: the load path's decode, and the text-parse oracle
 * the tests hold a build against.  The records are parsed a batch at
 * a time, and each batch fills an exactly sized arena of the table,
 * so the decode holds no more than a batch of parsed clauses at once.
 */
std::shared_ptr<const term::ClauseTable>
decodeClauses(const storage::ClauseFile &file, term::SymbolTable &symbols);

/**
 * The one build of a predicate version from clauses, shared by a
 * compile (PredicateStore::addProgram) and a minor compaction
 * (LiveStore's asserta/retract commits).  Each clause takes one pass:
 * it is copied in its stored form (term::storedClause) into a decoded
 * table sized exactly up front, and from that copy its record is
 * appended, its head signature encoded once into a reused scratch,
 * its index entry written and its plane bits set.  Nothing is parsed:
 * the record's text reads back as the table's copy.
 */
class PredicateBuilder
{
  public:
    PredicateBuilder(term::SymbolTable &symbols,
                     const scw::CodewordGenerator &generator,
                     const term::TermWriter &writer)
        : symbols_(symbols), generator_(generator), writer_(writer)
    {}

    /**
     * A version holding @p clauses in order: clause and index images,
     * index page CRCs, a full plane (no delta), the decoded table and
     * the rule count.  Placement and generation are the caller's.
     * @throws FatalError for a clause no text can carry
     */
    std::shared_ptr<StoredPredicate>
    build(std::span<const term::ClauseView> clauses);

  private:
    term::SymbolTable &symbols_;
    const scw::CodewordGenerator &generator_;
    const term::TermWriter &writer_;
    scw::Signature signature_;
};

/**
 * Receiver of cache-invalidation notices.  The retrieval server
 * implements this: after a LiveStore commit publishes new versions,
 * every cached result derived from a touched predicate (its
 * goal-cache entries) is dropped.
 */
class CacheInvalidationSink
{
  public:
    virtual ~CacheInvalidationSink() = default;

    /** A write to @p pred committed; drop derived cached state. */
    virtual void invalidatePredicate(const term::PredicateId &pred) = 0;
};

/**
 * The predicate store: builds clause and secondary files from parsed
 * programs and lays them out on a pair of modeled disks (data and
 * index regions of one spindle in the real system; two images here
 * for clarity of accounting).
 */
class PredicateStore
{
  public:
    /**
     * @param symbols shared symbol table (non-const: addStored() parses
     *        stored clause text to build the decoded tables, and a
     *        build may name variables of the clauses it stores)
     */
    PredicateStore(term::SymbolTable &symbols,
                   scw::CodewordGenerator generator,
                   storage::DiskGeometry geometry =
                       storage::DiskGeometry::fujitsuM2351A());

    /** Compile and store every predicate of a program. */
    void addProgram(const term::Program &program);

    /**
     * Insert an already-compiled predicate (the store-loading path);
     * the rule fraction is re-derived from the record flags, the
     * index page CRCs are computed and the decoded table is parsed
     * from the records (decodeClauses).
     * @param sliced pre-built bit-sliced plane (e.g. deserialized from
     *        a v3 store), or null to transpose one from the index image
     */
    void addStored(const term::PredicateId &pred,
                   storage::ClauseFile clauses,
                   scw::SecondaryFile index,
                   std::shared_ptr<const scw::BitSlicedIndex> sliced =
                       nullptr);

    /**
     * Finish layout: place the predicates' images back to back on
     * the disks, which record only the extents (the images, planes
     * and decoded tables live in the versions, built as each
     * predicate was added).
     */
    void finalize();

    bool has(const term::PredicateId &pred) const;

    /**
     * Pin one MVCC version of @p pred: the newest version whose
     * generation is <= @p generation (or the head when omitted).
     * Returns null when the predicate does not exist, or existed only
     * after the requested generation.  The returned pointer keeps the
     * version (and its images) alive regardless of later commits, so
     * readers never block on or observe an in-flight writer.
     */
    std::shared_ptr<const StoredPredicate>
    predicateVersion(const term::PredicateId &pred,
                     std::optional<std::uint64_t> generation = {}) const;

    /** Generation of the newest published commit (0 = load-time). */
    std::uint64_t headGeneration() const;

    /**
     * Publish new versions of the given predicates as one atomic
     * commit.  Stamps every version with the new generation, appends
     * it to the version chains, and registers predicates not seen
     * before.  Readers pinned to older generations are unaffected.
     * @return the generation the versions were published at
     */
    std::uint64_t publish(
        std::map<term::PredicateId,
                 std::shared_ptr<StoredPredicate>> versions);

    /**
     * Every stored predicate, in insertion order.  A copy taken under
     * the version lock: a commit may register a brand-new predicate
     * concurrently.
     */
    std::vector<term::PredicateId> predicates() const;

    const storage::DiskModel &dataDisk() const { return dataDisk_; }
    const storage::DiskModel &indexDisk() const { return indexDisk_; }
    const scw::CodewordGenerator &generator() const { return generator_; }

    /** Bytes of clause data in the head version of every predicate. */
    std::uint64_t dataBytes() const;
    /** Bytes of index data in the head version of every predicate. */
    std::uint64_t indexBytes() const;

    /** Versions held by the chains, generation 0 included. */
    std::uint64_t liveVersions() const;
    /**
     * Heap bytes every held version keeps alive: images, record
     * directories, planes, decoded tables and page CRCs, with storage
     * that versions share counted once.
     */
    std::uint64_t retainedBytes() const;

  private:
    /** Open @p pred's version chain at generation 0. */
    void openChain(const term::PredicateId &pred,
                   std::shared_ptr<StoredPredicate> stored);

    term::SymbolTable &symbols_;
    scw::CodewordGenerator generator_;
    term::TermWriter writer_;
    storage::DiskModel dataDisk_;
    storage::DiskModel indexDisk_;

    /**
     * Predicate enumeration order.  addProgram()/addStored() and
     * publish() of a *new* predicate append here.
     */
    std::vector<term::PredicateId> order_;
    bool finalized_ = false;

    /**
     * MVCC version chains, oldest first, each entry (generation,
     * version).  addProgram()/addStored() open a predicate's chain at
     * generation 0; commits append.  Versions are mutable only while
     * finalize() places the generation-0 ones; readers get them as
     * const.  After finalize() the chains and order_ are guarded by
     * mvccMutex_ (unique_ptr so the store stays movable before
     * serving starts).
     */
    std::unique_ptr<std::shared_mutex> mvccMutex_;
    std::uint64_t headGeneration_ = 0;
    /** liveVersions() / retainedBytes(), kept as versions are added. */
    std::uint64_t liveVersions_ = 0;
    std::uint64_t retainedBytes_ = 0;
    std::map<term::PredicateId,
             std::vector<std::pair<std::uint64_t,
                                   std::shared_ptr<StoredPredicate>>>>
        versions_;
};

} // namespace clare::crs

#endif // CLARE_CRS_STORE_HH
