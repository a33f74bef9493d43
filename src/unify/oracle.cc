#include "unify/oracle.hh"

#include "unify/unify.hh"

namespace clare::unify {

bool
HeadUnifier::unifies(const term::TermArena &arena, term::TermRef head)
{
    // Scratch arena: goal first, then the clause head standardized
    // apart by offsetting its variable ids past the goal's.  Unifying
    // binds variables to terms but never edits a node, so the goal
    // copy stays as imported; only the head and whatever the unifier
    // built after it are dropped.
    if (goal_ == term::kNoTerm) {
        goal_ = scratch_.import(qArena_, qGoal_, 0);
        goalMark_ = scratch_.mark();
    } else {
        scratch_.rewind(goalMark_);
    }
    term::TermRef h = scratch_.import(arena, head, qArena_.varCeiling());
    bool ok = unifyTerms(scratch_, goal_, h, bindings_);
    bindings_.undo(0);
    return ok;
}

bool
wouldUnify(const term::TermArena &q_arena, term::TermRef q_goal,
           const term::Clause &clause)
{
    return HeadUnifier(q_arena, q_goal).unifies(clause.arena(),
                                                clause.head());
}

} // namespace clare::unify
