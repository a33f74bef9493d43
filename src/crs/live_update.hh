/**
 * @file
 * Live (online) updates of the compiled predicate store: WAL-backed
 * crash-recoverable assert/retract with MVCC snapshot publication.
 *
 * The PDBM store was built once and immutable; the paper lists
 * "transaction handling" for the CRS as ongoing work.  This module
 * supplies it:
 *
 *  - Durability: every update transaction appends its operation
 *    records plus one Commit record to a storage::Wal and syncs
 *    *before* the in-memory store publishes anything (write-ahead
 *    discipline).  A crash at any byte therefore recovers to exactly
 *    the last complete commit.
 *
 *  - Visibility: a commit builds fresh StoredPredicate versions for
 *    the touched predicates and publishes them atomically through
 *    PredicateStore::publish().  Readers pin a version (optionally a
 *    historical generation via RetrievalRequest::snapshot) and never
 *    block on or observe an in-flight writer.
 *
 *  - One stored form: each asserted clause is put in its stored form
 *    (term::storedClause) once, when its op is made, and that clause
 *    feeds the record, the signature, the decoded table and the WAL
 *    text alike.  The text reads back as the clause, so recovery,
 *    which parses the logged text, rebuilds the very store the live
 *    path built; nothing inside the process parses it.  A clause no
 *    text can carry is rejected before anything is logged.
 *
 *  - Index maintenance: an assertz-only commit costs O(delta) in
 *    work and bytes copied, whatever the predicate's size.  The
 *    clause image, record directory and index image are prefixes of
 *    append-only storage shared with the predecessor version
 *    (support::SharedPrefix): the new bytes go in place behind the
 *    predecessor's prefix, or, when the storage is full or was
 *    already extended, into one copy of doubled capacity.  The
 *    composite images stay byte-identical to a from-scratch rebuild.
 *    The base bit-sliced plane and decoded table are shared
 *    untouched; the delta mini-plane is the predecessor's extended by
 *    the new entries only, and the decoded delta is a chain of
 *    per-commit links (DecodedDelta).  The rule count and the index
 *    page CRCs carry over; only the CRCs of pages past the
 *    predecessor's last full page are computed.
 *    asserta/retract trigger a per-predicate minor compaction: the
 *    predicate is rebuilt from its evolving clause list, which is
 *    exactly the LSM tombstone-merge rule with a level count of one.
 *    The list is the predecessor's decoded clauses with the ops
 *    applied, the very list a retract resolves its target against,
 *    and the rebuild runs through PredicateBuilder, the compile's
 *    one-pass build.  Either way the images, plane and decoded table,
 *    and so the scan results (survivor order AND modeled Ticks), are
 *    bit-identical to a full rebuild.
 *
 *  - What still grows per commit: every version is kept (there is no
 *    snapshot horizon yet), each with its own delta plane, whose copy
 *    grows with the entries appended since the base plane was built,
 *    and its own copy of the index page CRCs (4 bytes per 4 KB page).
 *
 * Writers are serialized by an internal mutex (single-writer,
 * many-reader); begin() holds it until commit()/abort() so retract
 * resolution and the WAL append happen against one consistent state.
 */

#ifndef CLARE_CRS_LIVE_UPDATE_HH
#define CLARE_CRS_LIVE_UPDATE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crs/store.hh"
#include "storage/wal.hh"
#include "support/errors.hh"
#include "term/symbol_table.hh"
#include "term/term_writer.hh"

namespace clare::crs {

/**
 * One buffered update operation.  An assert op carries its clause in
 * the stored form; the WAL logs that clause's text, which recovery
 * parses back into the same clause, so the live path and replay build
 * bit-identical store states.
 */
struct LiveOp
{
    enum class Kind : std::uint8_t
    {
        Assertz,    ///< append at the predicate's end
        Asserta,    ///< prepend (compaction at commit)
        Retract,    ///< remove one clause by evolving-list position
    };

    Kind kind = Kind::Assertz;
    term::PredicateId pred;
    /** The asserted clause in its stored form (assert ops). */
    term::Clause clause;
    /** WAL position of a replayed op, for error reports (else 0). */
    std::uint64_t lsn = 0;
    /**
     * Retract target: the clause's position in the predicate's
     * *evolving* clause list — head store state with this
     * transaction's earlier ops applied — at the op's sequence point.
     * Replay applies ops in order over the same evolving list, so the
     * position identifies the same clause on both paths.
     */
    std::uint32_t ordinal = 0;
};

/** The live-update front end over a compiled PredicateStore. */
class LiveStore
{
  public:
    /**
     * Attach live updates to @p store, opening (or creating) the WAL
     * at @p wal_path and replaying any committed records with LSN at
     * or above @p applied_lsn (the checkpoint watermark from the
     * store manifest; 0 for a store that never checkpointed).
     *
     * @param faults optional kill-point oracle threaded into the WAL
     *        and checkpoint writer (crash fuzzing)
     */
    LiveStore(PredicateStore &store, term::SymbolTable &symbols,
              const std::string &wal_path,
              std::uint64_t applied_lsn = 0,
              const support::FaultInjector *faults = nullptr);

    /**
     * Route commit-time invalidations to @p sink (the retrieval
     * server): after publish, every touched predicate's derived cache
     * state is dropped; nothing else is touched.
     */
    void attachSink(CacheInvalidationSink *sink) { sink_ = sink; }

    /** One pending update transaction (holds the writer lock). */
    class Update
    {
      public:
        Update(Update &&) = default;
        ~Update();

        /**
         * Append a clause at the end of its predicate.
         * @throws FatalError for a clause no text can carry (nothing
         *         is buffered, and the commit logs nothing of it)
         */
        void assertz(const term::Clause &clause);
        /**
         * Prepend a clause (forces a compaction at commit); throws as
         * assertz() does.
         */
        void asserta(const term::Clause &clause);

        /**
         * Retract the first clause matching @p pattern — a head term
         * (matches facts) or ':-'(Head, Body) — resolved against the
         * head store state plus this transaction's earlier ops.
         * @return true when a clause matched (and will be removed)
         */
        bool retract(const term::TermArena &arena,
                     term::TermRef pattern);

        /**
         * Make the transaction durable (WAL append + sync), apply it,
         * and publish one new MVCC generation.  An empty transaction
         * writes nothing.  @return the published (or current)
         * generation
         * @throws CrashError at an armed kill point — nothing was
         *         published; recovery replays to the pre-commit state
         */
        std::uint64_t commit();

        /** Drop the transaction; nothing was logged or published. */
        void abort();

        bool active() const { return active_; }

      private:
        friend class LiveStore;
        explicit Update(LiveStore &owner);

        LiveStore *owner_;
        std::unique_lock<std::mutex> lock_;
        std::vector<LiveOp> ops_;
        bool active_ = true;
    };

    /** Open a transaction (takes the writer lock until it ends). */
    Update begin();

    /** @name Single-op auto-commit conveniences */
    /// @{
    std::uint64_t assertz(const term::Clause &clause);
    std::uint64_t asserta(const term::Clause &clause);
    /** @return the generation when a clause matched, else nullopt. */
    std::optional<std::uint64_t> retract(const term::TermArena &arena,
                                         term::TermRef pattern);
    /// @}

    /**
     * Checkpoint: persist the current store under
     * `<root>/ckpt-<lsn>/`, atomically flip `<root>/CURRENT` to name
     * it (the LevelDB CURRENT discipline — the rename is the single
     * commit point), then reset the WAL to the applied watermark.  A
     * crash at any byte leaves either the old CURRENT (pre-state +
     * full WAL replay) or the new one (post-state, applied records
     * skipped) — never a third outcome.  Kill sites: "checkpoint"
     * (store + CURRENT bytes), "wal.checkpoint" (the log reset).
     */
    void checkpoint(const std::string &root);

    storage::Wal &wal() { return *wal_; }
    /** Watermark below which WAL records are already in the store. */
    std::uint64_t appliedLsn() const { return appliedLsn_; }
    /** Commit groups replayed from the WAL at construction. */
    std::size_t recoveredCommits() const { return recoveredCommits_; }
    /** Commits applied in-process (excludes recovery replay). */
    std::uint64_t commits() const { return commits_; }

  private:
    /**
     * The one apply path, shared by live commits, recovery replay,
     * and (indirectly) the oracle tests: log (unless replaying),
     * build per-predicate versions, publish, invalidate.
     */
    std::uint64_t commitOps(std::vector<LiveOp> ops, bool log);

    std::shared_ptr<StoredPredicate>
    buildComposite(const StoredPredicate &prev,
                   const std::vector<LiveOp *> &ops);
    std::shared_ptr<StoredPredicate>
    buildCompacted(const StoredPredicate *prev,
                   const std::vector<LiveOp *> &ops);

    /**
     * An assert op of @p clause, put in its stored form.
     * @throws FatalError for a clause no text can carry
     */
    LiveOp assertOp(LiveOp::Kind kind, const term::ClauseView &clause);

    /** Damage in the replayed WAL record at @p lsn. */
    CorruptionError walDamage(std::uint64_t lsn,
                              const std::string &why) const;

    /**
     * Decode a recovered WAL record back into an op (replay path).
     * @throws CorruptionError naming the WAL and the record's LSN when
     *         the payload is malformed or its clause does not parse
     *         (or is one no text can carry)
     */
    LiveOp decodeOp(const storage::Wal::Record &rec);

    PredicateStore &store_;
    term::SymbolTable &symbols_;
    term::TermWriter writer_;
    const support::FaultInjector *faults_;
    std::unique_ptr<storage::Wal> wal_;
    CacheInvalidationSink *sink_ = nullptr;

    std::mutex writerMutex_;
    std::uint64_t appliedLsn_ = 0;
    std::size_t recoveredCommits_ = 0;
    std::uint64_t commits_ = 0;
    /** Cumulative checkpoint bytes this process run (kill sweep). */
    std::uint64_t ckptCumulative_ = 0;
};

} // namespace clare::crs

#endif // CLARE_CRS_LIVE_UPDATE_HH
