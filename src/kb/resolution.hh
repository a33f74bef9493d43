/**
 * @file
 * SLD resolution over the integrated knowledge base.
 *
 * Standard Prolog search: goals are solved left to right, clauses are
 * tried in source order, and backtracking undoes bindings through the
 * trail.  Clause retrieval for large (disk-resident) predicates goes
 * through the CRS/CLARE path; the filters only ever *narrow* the
 * candidate set, so resolution results are identical to exhaustive
 * search — the retrieval statistics the solver accumulates show what
 * the hardware saved.
 *
 * Built-ins: control (',', ';', '!', call/1, \+/not), unification
 * (=, \=, ==, \==), arithmetic (is, <, >, =<, >=, =:=, =\=,
 * between/3), term inspection (var, nonvar, atom, integer, float,
 * number, atomic, compound), solution collection (findall/3), and
 * database updates (assert(z/a), retract).
 *
 * Implementation note: the search is continuation-passing — each
 * resolved goal nests a C++ frame — so native stack depth grows with
 * the *proof size*, not just its depth.  Before each goal the search
 * compares its frame address with the thread's stack bounds; a proof
 * that comes within a fixed headroom of the end stops, as the step
 * budget stops it, with SolveStats::stackExhausted set instead of
 * overflowing the stack.  Either stop is final: no solution is
 * reported after it, not even past a findall/3 or \+ whose sub-proof
 * it cut short.
 */

#ifndef CLARE_KB_RESOLUTION_HH
#define CLARE_KB_RESOLUTION_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kb/knowledge_base.hh"
#include "support/sim_time.hh"

namespace clare::kb {

/** Solver limits and retrieval forcing. */
struct SolveOptions
{
    std::uint64_t maxSteps = 1'000'000;     ///< unification attempts
    std::uint64_t maxSolutions = UINT64_MAX;
    bool occursCheck = false;
    /** Force a retrieval mode instead of CRS auto-selection. */
    std::optional<crs::SearchMode> forceMode;
};

/** One solution: query variable name -> rendered binding. */
struct Solution
{
    std::map<std::string, std::string> bindings;
};

/** Accumulated solver statistics. */
struct SolveStats
{
    std::uint64_t steps = 0;            ///< head unification attempts
    std::uint64_t retrievals = 0;       ///< CLARE retrievals issued
    std::uint64_t candidatesRetrieved = 0;
    std::uint64_t retrievalFalseDrops = 0;
    Tick retrievalTime = 0;             ///< modeled retrieval latency
    bool budgetExhausted = false;
    /**
     * The search stopped because the proof came near the end of the
     * thread's native stack (see the implementation note above).
     */
    bool stackExhausted = false;

    /**
     * The limit that cut the search short ("step budget" or "native
     * stack"), or nullptr when the search ran its course.
     */
    const char *
    stopReason() const
    {
        return budgetExhausted ? "step budget"
            : stackExhausted ? "native stack" : nullptr;
    }
};

/** The resolution engine. */
class Solver
{
  public:
    explicit Solver(KnowledgeBase &kb) : kb_(kb) {}

    /** Solve a query text ("?-" optional), collecting solutions. */
    std::vector<Solution> solve(std::string_view query_text,
                                SolveOptions options = {});

    /** Solve an already-parsed query. */
    std::vector<Solution> solve(const term::ParsedQuery &query,
                                SolveOptions options = {});

    /** Statistics of the most recent solve() call. */
    const SolveStats &stats() const { return stats_; }

  private:
    KnowledgeBase &kb_;
    SolveStats stats_;
};

} // namespace clare::kb

#endif // CLARE_KB_RESOLUTION_HH
