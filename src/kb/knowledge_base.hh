/**
 * @file
 * The integrated Prolog knowledge base of the PDBM project.
 *
 * Unlike a coupled system, the knowledge base keeps rules and facts of
 * a predicate together in user-specified order, allows mixed relations
 * (ground facts alongside rules), and manages everything under one
 * Prolog system.  Predicates are classified like Prolog-X modules:
 * *small* predicates stay in main memory; *large* predicates are
 * compiled to disk-resident clause files with secondary (codeword)
 * files and retrieved through the Clause Retrieval Server backed by
 * the CLARE filters.
 */

#ifndef CLARE_KB_KNOWLEDGE_BASE_HH
#define CLARE_KB_KNOWLEDGE_BASE_HH

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "term/term_reader.hh"

namespace clare::kb {

/** Knowledge base configuration. */
struct KbConfig
{
    /**
     * Predicates with at least this many clauses are compiled to disk
     * (large); smaller ones stay in memory (small).
     */
    std::size_t largeThreshold = 256;

    scw::ScwConfig scw;
    crs::CrsConfig crs;
    storage::DiskGeometry disk = storage::DiskGeometry::fujitsuM2351A();
};

/** Clauses retrieved for a goal, plus retrieval accounting if CLARE ran. */
struct RetrievedClauses
{
    /**
     * Candidate clauses in source order (superset of the unifiers), as
     * views into decoded clause tables that `owner` keeps alive.
     */
    std::vector<term::ClauseView> clauses;

    /** Present when the goal hit a large (disk-resident) predicate. */
    std::optional<crs::RetrievalResponse> retrieval;

    /**
     * Owner of the tables the views point into: the predicate version
     * the retrieval pinned, or a snapshot of an in-memory predicate.
     */
    std::shared_ptr<const void> owner;
};

/** The integrated knowledge base. */
class KnowledgeBase
{
  public:
    explicit KnowledgeBase(KbConfig config = {});

    term::SymbolTable &symbols() { return symbols_; }
    const KbConfig &config() const { return config_; }

    /** Parse and add a program text (order preserved). */
    void consult(std::string_view text);

    /**
     * Consult the bundled library of list predicates (append/3,
     * member/2, length/2, reverse/2, last/2, nth0/3, select/3,
     * sum_list/2, max_list/2, min_list/2).  Call before compile().
     */
    void loadLibrary();

    /** Add one clause at the end of the program. */
    void add(term::Clause clause);

    /**
     * @name Dynamic updates (assert/retract).
     *
     * Permitted before compile(), and afterwards for predicates that
     * stayed in memory (small).  A disk-resident predicate becomes
     * updatable once enableLiveUpdates() attaches a WAL-backed
     * crs::LiveStore; without one the update is rejected (the
     * compiled files are immutable, as in the original PDBM model).
     */
    /// @{
    void assertz(term::Clause clause);
    void asserta(term::Clause clause);

    /**
     * Retract the first clause matching @p pattern: either a head
     * term (matches facts) or ':-'(Head, BodyConjunction).
     *
     * @return true if a clause was removed
     */
    bool retract(const term::TermArena &arena, term::TermRef pattern);
    /// @}

    std::size_t clauseCount() const { return program_.size(); }
    const term::Program &program() const { return program_; }

    /**
     * Classify predicates, compile the large ones to the predicate
     * store, and bring up the CRS.  Further consults are rejected
     * (the disk-resident store is immutable in this model; the paper's
     * update path is future work for the PDBM project too).
     */
    void compile();

    bool compiled() const { return compiled_; }

    /**
     * Attach crash-recoverable live updates to the compiled store:
     * opens (or recovers) the WAL at @p wal_path, replays committed
     * records past @p applied_lsn (the manifest watermark of a
     * checkpointed store; 0 otherwise), and routes assert/retract on
     * disk-resident predicates through the MVCC commit path.  Commit
     * invalidations flow into the server's goal cache automatically.
     */
    void enableLiveUpdates(const std::string &wal_path,
                           std::uint64_t applied_lsn = 0);

    /** The live-update front end (null until enableLiveUpdates()). */
    crs::LiveStore *liveStore() { return live_.get(); }

    /** Is the predicate disk-resident (after compile())? */
    bool isLarge(const term::PredicateId &pred) const;

    /**
     * Clauses whose heads could match the goal, in source order.  For
     * small predicates this is a snapshot of the in-memory clause
     * list; for large ones it is a CLARE retrieval (mode chosen by the
     * CRS unless forced) whose candidates are read from the decoded
     * table of the very version the retrieval pinned, so a concurrent
     * commit can never tear the list.
     */
    RetrievedClauses clausesFor(const term::TermArena &q_arena,
                                term::TermRef goal,
                                std::optional<crs::SearchMode> mode = {});

    /** The predicate store (after compile()). */
    const crs::PredicateStore &store() const;

    /** The retrieval server (after compile()). */
    crs::ClauseRetrievalServer &server();

  private:
    KbConfig config_;
    term::SymbolTable symbols_;
    term::TermReader reader_;
    term::Program program_;
    bool compiled_ = false;
    std::vector<term::PredicateId> largePreds_;
    std::unique_ptr<crs::PredicateStore> store_;
    std::unique_ptr<crs::ClauseRetrievalServer> server_;
    std::unique_ptr<crs::LiveStore> live_;
};

} // namespace clare::kb

#endif // CLARE_KB_KNOWLEDGE_BASE_HH
