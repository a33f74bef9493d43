/**
 * @file
 * Ground-truth unifiability oracle and false-drop accounting.
 *
 * A filter stage (codeword index, partial test unification) passes a
 * candidate set; the oracle decides which candidates truly unify.
 * Candidates that pass a filter but fail full unification are *false
 * drops* ("ghosts") — the paper's central quality metric.
 */

#ifndef CLARE_UNIFY_ORACLE_HH
#define CLARE_UNIFY_ORACLE_HH

#include <cstdint>

#include "term/clause.hh"
#include "term/term.hh"
#include "unify/bindings.hh"

namespace clare::unify {

/**
 * Full unification of one query goal against many clause heads, with
 * one scratch arena and one binding trail reused across heads.  Each
 * unifies() call is exactly wouldUnify() against a clause with that
 * head: the goal is imported into the scratch once (on the first
 * call), each head is imported after it standardized apart (head
 * variables offset past the goal's), and afterwards the scratch is
 * rewound to just past the goal and the trail undone.  Once warm, a
 * call touches no heap.
 */
class HeadUnifier
{
  public:
    HeadUnifier(const term::TermArena &q_arena, term::TermRef q_goal)
        : qArena_(q_arena), qGoal_(q_goal)
    {
    }

    /** Does @p head (a term of @p arena) unify with the goal? */
    bool unifies(const term::TermArena &arena, term::TermRef head);

  private:
    const term::TermArena &qArena_;
    term::TermRef qGoal_;
    term::TermArena scratch_;
    /** The goal's root in scratch_; kNoTerm until first imported. */
    term::TermRef goal_ = term::kNoTerm;
    /** scratch_ holding just the goal. */
    term::TermArena::Mark goalMark_;
    Bindings bindings_;
};

/**
 * Would the clause head fully unify with the query goal?
 *
 * The clause is standardized apart (imported into a scratch arena next
 * to the goal) and full unification is attempted.  The clause body is
 * irrelevant: clause *retrieval* selects by head.
 */
bool wouldUnify(const term::TermArena &q_arena, term::TermRef q_goal,
                const term::Clause &clause);

/** Filter-quality accounting for one query against one clause set. */
struct FilterQuality
{
    std::uint64_t candidates = 0;   ///< clauses the filter passed
    std::uint64_t trueDrops = 0;    ///< passed and truly unify
    std::uint64_t falseDrops = 0;   ///< passed but do not unify
    std::uint64_t falseDismissals = 0; ///< rejected but would unify (bug!)

    /** Fraction of the candidate set that is ghosts. */
    double
    falseDropRate() const
    {
        return candidates == 0
            ? 0.0
            : static_cast<double>(falseDrops) /
              static_cast<double>(candidates);
    }
};

} // namespace clare::unify

#endif // CLARE_UNIFY_ORACLE_HH
