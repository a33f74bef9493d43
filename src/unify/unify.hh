/**
 * @file
 * Full (Robinson) unification over arena terms.
 *
 * This is the host-side operation the CLARE filters exist to avoid
 * running over the whole knowledge base: the filters pass a superset
 * of the clauses that full unification accepts, and the host applies
 * this unifier only to the survivors.
 *
 * The unifier may extend the arena: unifying a terminated list with a
 * shorter unterminated list binds the tail variable to a freshly built
 * residual list node.
 */

#ifndef CLARE_UNIFY_UNIFY_HH
#define CLARE_UNIFY_UNIFY_HH

#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "term/term.hh"
#include "unify/bindings.hh"

namespace clare::unify {

/** Options controlling unification. */
struct UnifyOptions
{
    /**
     * Perform the occurs check.  Standard Prolog omits it for speed;
     * the resolution engine runs with it off by default.
     */
    bool occursCheck = false;
};

/**
 * Unify two terms of the same arena under the given bindings.
 *
 * On failure the bindings are rolled back to their state at entry;
 * on success the new bindings remain (callers use Bindings::mark /
 * undo to manage choice points).
 *
 * @return true iff the terms unify.
 */
bool unifyTerms(term::TermArena &arena, term::TermRef a, term::TermRef b,
                Bindings &bindings, const UnifyOptions &options = {});

/**
 * Resolve a term to its fully dereferenced, bindings-applied form as a
 * fresh subterm in @p out (used to report solutions).  Unbound
 * variables are copied through.
 */
term::TermRef resolveTerm(const term::TermArena &arena, term::TermRef t,
                          const Bindings &bindings,
                          term::TermArena &out);

/**
 * A retract pattern: a clause head, which matches facts only
 * (retract(H) is retract((H :- true))), or ':-'(Head, Body), which
 * matches a clause whose head and body conjunction both unify with it.
 */
class RetractPattern
{
  public:
    /** @throws FatalError when the head is not an atom or structure */
    RetractPattern(const term::TermArena &arena, term::TermRef pattern,
                   term::SymbolTable &symbols);

    /** The predicate the pattern's head names. */
    const term::PredicateId &predicate() const { return pred_; }

    /** True when @p clause matches, standardized apart from the pattern. */
    bool matches(const term::ClauseView &clause) const;

  private:
    const term::TermArena &arena_;
    term::SymbolTable &symbols_;
    term::TermRef head_;
    term::TermRef body_ = term::kNoTerm;
    term::PredicateId pred_;
};

} // namespace clare::unify

#endif // CLARE_UNIFY_UNIFY_HH
