#include "kb/resolution.hh"

#include <pthread.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "kb/arith.hh"
#include "support/logging.hh"
#include "term/term_writer.hh"
#include "unify/bindings.hh"
#include "unify/unify.hh"

namespace clare::kb {

using term::TermArena;
using term::TermKind;
using term::TermRef;

namespace {

/**
 * A pending goal plus the cut barrier of the clause activation it
 * belongs to.  All body goals of one activation share a barrier; a
 * '!' goal sets it, which (a) stops the clause loops of sibling goals
 * from retrying alternatives and (b) makes the activated goal fail
 * outright instead of trying further clauses.
 */
struct GoalEntry
{
    TermRef term;
    std::shared_ptr<bool> barrier;
};

/**
 * The lowest frame address the search may reach on the calling thread:
 * the stack's low end plus headroom for the deepest stretch below a
 * goal's solve() frame before the next check, at most a quarter of the
 * stack.  0 when the bounds are unknown.
 *
 * Measured below the deepest solve() frame of proofs that end in a CRS
 * retrieval (every search mode), findall/3, \+, arithmetic, an
 * assertz/asserta/retract commit through the live store, or the
 * solution callback: at most 6.2 KB at -O2 and -O3, 34.8 KB under
 * ASan+UBSan.  A level of count/1 recursion takes about 1.6 KB at -O2
 * and -O3 (10.6 KB under ASan), so an 8 MB stack answers count(5000).
 * Nesting within a term (a deep term to unify or write) is not covered.
 */
std::uintptr_t
stackFloor()
{
    static constexpr std::size_t kHeadroom = 64 * 1024;
    thread_local const std::uintptr_t floor = [] {
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) != 0)
            return std::uintptr_t{0};
        void *low = nullptr;
        std::size_t size = 0;
        const bool known = pthread_attr_getstack(&attr, &low, &size) == 0;
        pthread_attr_destroy(&attr);
        return known ? reinterpret_cast<std::uintptr_t>(low) +
                std::min(kHeadroom, size / 4)
                     : std::uintptr_t{0};
    }();
    return floor;
}

/** The depth-first SLD search over one runtime arena. */
class SearchState
{
  public:
    SearchState(KnowledgeBase &kb, const SolveOptions &options,
                SolveStats &stats)
        : kb_(kb), options_(options), stats_(stats),
          stackFloor_(stackFloor())
    {}

    TermArena &arena() { return arena_; }
    unify::Bindings &bindings() { return bindings_; }

    /**
     * Solve goals[idx..]; calls @p on_solution for each solution.
     * Returns true when the search should stop (enough solutions, or
     * the step budget or the stack exhausted; either of the last two
     * makes every later call return true as well).
     */
    bool
    solve(const std::vector<GoalEntry> &goals, std::size_t idx,
          const std::function<bool()> &on_solution)
    {
        // A stop holds for the rest of the search: findall/3 and \+
        // ignore their sub-proof's result, and a truncated sub-proof
        // must not let the caller go on to report solutions.
        if (stats_.stackExhausted || stats_.budgetExhausted)
            return true;
        // The stack grows down.  Stopping here, before the goal's
        // frames (or the solution callback's), leaves the headroom for
        // the deepest of them.
        if (reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) <
            stackFloor_) {
            stats_.stackExhausted = true;
            return true;
        }
        if (idx == goals.size())
            return on_solution();

        const GoalEntry &entry = goals[idx];
        TermRef goal = bindings_.deref(arena_, entry.term);
        TermKind k = arena_.kind(goal);
        if (k == TermKind::Var)
            clare_fatal("unbound variable used as a goal");
        if (k != TermKind::Atom && k != TermKind::Struct)
            clare_fatal("goal must be an atom or structure");

        bool handled = false;
        bool stop = builtin(goals, idx, goal, on_solution, handled);
        if (handled)
            return stop;

        return userPredicate(goals, idx, goal, on_solution);
    }

  private:
    KnowledgeBase &kb_;
    const SolveOptions &options_;
    SolveStats &stats_;
    const std::uintptr_t stackFloor_;
    TermArena arena_;
    unify::Bindings bindings_;

    term::SymbolTable &symbols_ = kb_.symbols();
    term::SymbolId trueSym_ = symbols_.intern("true");
    term::SymbolId failSym_ = symbols_.intern("fail");
    term::SymbolId falseSym_ = symbols_.intern("false");
    term::SymbolId cutSym_ = symbols_.intern("!");

    /** Convert a resolved ':-'/2 or head term into a Clause. */
    term::Clause
    termToClause(term::TermArena &snapshot, TermRef t)
    {
        term::SymbolId neck = symbols_.intern(":-");
        term::SymbolId comma = symbols_.intern(",");
        TermRef head = t;
        std::vector<TermRef> body;
        if (snapshot.kind(t) == TermKind::Struct &&
            snapshot.functor(t) == neck && snapshot.arity(t) == 2) {
            head = snapshot.arg(t, 0);
            TermRef conj = snapshot.arg(t, 1);
            while (snapshot.kind(conj) == TermKind::Struct &&
                   snapshot.functor(conj) == comma &&
                   snapshot.arity(conj) == 2) {
                body.push_back(snapshot.arg(conj, 0));
                conj = snapshot.arg(conj, 1);
            }
            body.push_back(conj);
        }
        // The clause gets its own arena.
        term::TermArena arena;
        TermRef new_head = arena.import(snapshot, head, 0);
        std::vector<TermRef> new_body;
        for (TermRef g : body)
            new_body.push_back(arena.import(snapshot, g, 0));
        return term::Clause(std::move(arena), new_head,
                            std::move(new_body));
    }

    /** Structural (==) equality of two dereferenced terms. */
    bool
    structurallyEqual(TermRef a, TermRef b)
    {
        a = bindings_.deref(arena_, a);
        b = bindings_.deref(arena_, b);
        TermKind ka = arena_.kind(a);
        if (ka != arena_.kind(b))
            return false;
        switch (ka) {
          case TermKind::Var:
            return arena_.varId(a) == arena_.varId(b);
          case TermKind::Atom:
            return arena_.atomSymbol(a) == arena_.atomSymbol(b);
          case TermKind::Int:
            return arena_.intValue(a) == arena_.intValue(b);
          case TermKind::Float:
            return arena_.floatId(a) == arena_.floatId(b);
          case TermKind::Struct: {
            if (arena_.functor(a) != arena_.functor(b) ||
                arena_.arity(a) != arena_.arity(b)) {
                return false;
            }
            for (std::uint32_t i = 0; i < arena_.arity(a); ++i)
                if (!structurallyEqual(arena_.arg(a, i),
                                       arena_.arg(b, i)))
                    return false;
            return true;
          }
          case TermKind::List: {
            if (arena_.arity(a) != arena_.arity(b))
                return false;
            for (std::uint32_t i = 0; i < arena_.arity(a); ++i)
                if (!structurallyEqual(arena_.arg(a, i),
                                       arena_.arg(b, i)))
                    return false;
            TermRef ta = arena_.listTail(a);
            TermRef tb = arena_.listTail(b);
            if ((ta == term::kNoTerm) != (tb == term::kNoTerm))
                return false;
            return ta == term::kNoTerm || structurallyEqual(ta, tb);
          }
        }
        clare_panic("unreachable term kind");
    }

    /** Unify-and-continue helper shared by =/2 and is/2. */
    bool
    unifyContinue(const std::vector<GoalEntry> &goals, std::size_t idx,
                  TermRef a, TermRef b,
                  const std::function<bool()> &on_solution)
    {
        unify::TrailMark mark = bindings_.mark();
        unify::UnifyOptions uopt;
        uopt.occursCheck = options_.occursCheck;
        if (unify::unifyTerms(arena_, a, b, bindings_, uopt)) {
            if (solve(goals, idx + 1, on_solution))
                return true;
        }
        bindings_.undo(mark);
        return false;
    }

    /**
     * Dispatch built-ins.  Sets @p handled when the goal was one;
     * the return value then carries the solve() result.
     */
    bool
    builtin(const std::vector<GoalEntry> &goals, std::size_t idx,
            TermRef goal, const std::function<bool()> &on_solution,
            bool &handled)
    {
        handled = true;
        TermKind k = arena_.kind(goal);

        if (k == TermKind::Atom) {
            term::SymbolId sym = arena_.atomSymbol(goal);
            if (sym == trueSym_)
                return solve(goals, idx + 1, on_solution);
            if (sym == failSym_ || sym == falseSym_)
                return false;
            if (sym == cutSym_) {
                // Commit to the current activation: no further
                // alternatives for any sibling goal or for the
                // activated clause itself.
                if (goals[idx].barrier)
                    *goals[idx].barrier = true;
                return solve(goals, idx + 1, on_solution);
            }
            handled = false;
            return false;
        }

        const std::string &name = symbols_.name(arena_.functor(goal));
        std::uint32_t arity = arena_.arity(goal);

        if (arity == 2 && name == ",") {
            // Conjunction control term (from call/1, parenthesized
            // bodies, or disjunction branches): splice both conjuncts
            // into the goal list under the same cut barrier.
            std::vector<GoalEntry> next;
            next.reserve(goals.size() - idx + 1);
            next.push_back({arena_.arg(goal, 0), goals[idx].barrier});
            next.push_back({arena_.arg(goal, 1), goals[idx].barrier});
            for (std::size_t j = idx + 1; j < goals.size(); ++j)
                next.push_back(goals[j]);
            return solve(next, 0, on_solution);
        }

        if (arity == 2 && name == ";") {
            // Disjunction: try the left branch, then the right.
            for (int side = 0; side < 2; ++side) {
                unify::TrailMark mark = bindings_.mark();
                std::vector<GoalEntry> next;
                next.reserve(goals.size() - idx);
                next.push_back({arena_.arg(goal,
                                           static_cast<std::uint32_t>(
                                               side)),
                                goals[idx].barrier});
                for (std::size_t j = idx + 1; j < goals.size(); ++j)
                    next.push_back(goals[j]);
                if (solve(next, 0, on_solution))
                    return true;
                bindings_.undo(mark);
                if (goals[idx].barrier && *goals[idx].barrier)
                    return false;   // a cut committed to this branch
            }
            return false;
        }

        if (arity == 2) {
            TermRef a = arena_.arg(goal, 0);
            TermRef b = arena_.arg(goal, 1);
            if (name == "=")
                return unifyContinue(goals, idx, a, b, on_solution);
            if (name == "\\=") {
                unify::TrailMark mark = bindings_.mark();
                unify::UnifyOptions uopt;
                uopt.occursCheck = options_.occursCheck;
                bool unified = unify::unifyTerms(arena_, a, b, bindings_,
                                                 uopt);
                bindings_.undo(mark);
                return unified ? false
                               : solve(goals, idx + 1, on_solution);
            }
            if (name == "==") {
                return structurallyEqual(a, b)
                    ? solve(goals, idx + 1, on_solution) : false;
            }
            if (name == "\\==") {
                return structurallyEqual(a, b)
                    ? false : solve(goals, idx + 1, on_solution);
            }
            if (name == "is") {
                Number v = evalArith(symbols_, arena_, b, bindings_);
                TermRef value = v.isFloat
                    ? arena_.makeFloat(symbols_.internFloat(v.floatValue))
                    : arena_.makeInt(v.intValue);
                return unifyContinue(goals, idx, a, value, on_solution);
            }
            if (name == "<" || name == ">" || name == "=<" ||
                name == ">=" || name == "=:=" || name == "=\\=") {
                Number x = evalArith(symbols_, arena_, a, bindings_);
                Number y = evalArith(symbols_, arena_, b, bindings_);
                int c = compareNumbers(x, y);
                bool ok = (name == "<" && c < 0) ||
                          (name == ">" && c > 0) ||
                          (name == "=<" && c <= 0) ||
                          (name == ">=" && c >= 0) ||
                          (name == "=:=" && c == 0) ||
                          (name == "=\\=" && c != 0);
                return ok ? solve(goals, idx + 1, on_solution) : false;
            }
        }

        if (arity == 3 && name == "findall") {
            // findall(Template, Goal, List): collect every solution's
            // resolved template, then unify the list.
            TermRef template_term = arena_.arg(goal, 0);
            TermRef sub_goal = bindings_.deref(arena_,
                                               arena_.arg(goal, 1));
            unify::TrailMark mark = bindings_.mark();
            std::vector<TermRef> collected;
            std::vector<GoalEntry> sub{{sub_goal,
                                        std::make_shared<bool>(false)}};
            solve(sub, 0, [&]() {
                // Copy the instantiated template: later backtracking
                // must not disturb it, so it is rebuilt from resolved
                // form inside the runtime arena with fresh nodes.
                term::TermArena snapshot;
                TermRef resolved = unify::resolveTerm(
                    arena_, template_term, bindings_, snapshot);
                collected.push_back(arena_.import(
                    snapshot, resolved, arena_.varCeiling()));
                return false;   // keep enumerating
            });
            bindings_.undo(mark);
            TermRef list = collected.empty()
                ? arena_.makeAtom(symbols_.intern("[]"))
                : arena_.makeList(collected);
            return unifyContinue(goals, idx, arena_.arg(goal, 2), list,
                                 on_solution);
        }

        if (arity == 3 && name == "between") {
            // between(Lo, Hi, X): check or enumerate.
            Number lo = evalArith(symbols_, arena_,
                                  arena_.arg(goal, 0), bindings_);
            Number hi = evalArith(symbols_, arena_,
                                  arena_.arg(goal, 1), bindings_);
            if (lo.isFloat || hi.isFloat)
                clare_fatal("between/3 requires integer bounds");
            TermRef x = bindings_.deref(arena_, arena_.arg(goal, 2));
            if (arena_.kind(x) != TermKind::Var) {
                if (arena_.kind(x) != TermKind::Int)
                    return false;
                std::int64_t v = arena_.intValue(x);
                return v >= lo.intValue && v <= hi.intValue
                    ? solve(goals, idx + 1, on_solution) : false;
            }
            for (std::int64_t v = lo.intValue; v <= hi.intValue; ++v) {
                unify::TrailMark mark = bindings_.mark();
                bindings_.bind(arena_.varId(x), arena_.makeInt(v));
                if (solve(goals, idx + 1, on_solution))
                    return true;
                bindings_.undo(mark);
                // A cut fired in our activation: stop enumerating.
                if (goals[idx].barrier && *goals[idx].barrier)
                    return false;
            }
            return false;
        }

        if (arity == 1 && (name == "assert" || name == "assertz" ||
                           name == "asserta")) {
            term::TermArena snapshot;
            TermRef resolved = unify::resolveTerm(
                arena_, arena_.arg(goal, 0), bindings_, snapshot);
            term::Clause clause = termToClause(snapshot, resolved);
            if (name == "asserta")
                kb_.asserta(std::move(clause));
            else
                kb_.assertz(std::move(clause));
            return solve(goals, idx + 1, on_solution);
        }

        if (arity == 1 && name == "retract") {
            term::TermArena snapshot;
            TermRef resolved = unify::resolveTerm(
                arena_, arena_.arg(goal, 0), bindings_, snapshot);
            return kb_.retract(snapshot, resolved)
                ? solve(goals, idx + 1, on_solution) : false;
        }

        if (arity == 1) {
            TermRef arg = bindings_.deref(arena_, arena_.arg(goal, 0));
            if (name == "\\+" || name == "not") {
                // Negation as failure: the sub-proof may not bind the
                // caller's variables.
                unify::TrailMark mark = bindings_.mark();
                bool found = false;
                std::vector<GoalEntry> sub{{arg,
                                            std::make_shared<bool>(false)}};
                solve(sub, 0, [&found]() {
                    found = true;
                    return true;    // one witness is enough
                });
                bindings_.undo(mark);
                return found ? false
                             : solve(goals, idx + 1, on_solution);
            }
            if (name == "call") {
                std::vector<GoalEntry> next;
                next.reserve(goals.size() - idx);
                // A called goal is opaque to cut: give it its own
                // barrier.
                next.push_back({arg, std::make_shared<bool>(false)});
                for (std::size_t j = idx + 1; j < goals.size(); ++j)
                    next.push_back(goals[j]);
                return solve(next, 0, on_solution);
            }

            TermKind ak = arena_.kind(arg);
            auto type_check = [&](bool ok) {
                return ok ? solve(goals, idx + 1, on_solution) : false;
            };
            if (name == "var")
                return type_check(ak == TermKind::Var);
            if (name == "nonvar")
                return type_check(ak != TermKind::Var);
            if (name == "atom")
                return type_check(ak == TermKind::Atom);
            if (name == "integer")
                return type_check(ak == TermKind::Int);
            if (name == "float")
                return type_check(ak == TermKind::Float);
            if (name == "number")
                return type_check(ak == TermKind::Int ||
                                  ak == TermKind::Float);
            if (name == "atomic")
                return type_check(ak == TermKind::Atom ||
                                  ak == TermKind::Int ||
                                  ak == TermKind::Float);
            if (name == "compound")
                return type_check(ak == TermKind::Struct ||
                                  ak == TermKind::List);
        }

        handled = false;
        return false;
    }

    /** Resolve a user predicate goal against the knowledge base. */
    bool
    userPredicate(const std::vector<GoalEntry> &goals, std::size_t idx,
                  TermRef goal, const std::function<bool()> &on_solution)
    {
        // Retrieve candidate clauses for the goal as currently
        // instantiated.
        TermArena goal_arena;
        TermRef resolved = unify::resolveTerm(arena_, goal, bindings_,
                                              goal_arena);
        RetrievedClauses retrieved = kb_.clausesFor(goal_arena, resolved,
                                                    options_.forceMode);
        if (retrieved.retrieval) {
            ++stats_.retrievals;
            stats_.candidatesRetrieved +=
                retrieved.retrieval->candidates.size();
            stats_.retrievalFalseDrops +=
                retrieved.retrieval->falseDrops();
            stats_.retrievalTime += retrieved.retrieval->elapsed;
        }

        const std::shared_ptr<bool> &parent_barrier = goals[idx].barrier;
        for (const term::ClauseView &clause : retrieved.clauses) {
            if (++stats_.steps > options_.maxSteps) {
                stats_.budgetExhausted = true;
                return true;
            }
            term::VarId offset = arena_.varCeiling();
            TermRef head = arena_.import(*clause.arena, clause.head,
                                         offset);
            unify::TrailMark mark = bindings_.mark();
            unify::UnifyOptions uopt;
            uopt.occursCheck = options_.occursCheck;
            if (unify::unifyTerms(arena_, goal, head, bindings_, uopt)) {
                auto barrier = std::make_shared<bool>(false);
                std::vector<GoalEntry> next;
                next.reserve(clause.body.size() +
                             (goals.size() - idx - 1));
                for (TermRef g : clause.body)
                    next.push_back({arena_.import(*clause.arena, g,
                                                  offset),
                                    barrier});
                for (std::size_t j = idx + 1; j < goals.size(); ++j)
                    next.push_back(goals[j]);
                if (solve(next, 0, on_solution))
                    return true;
                bindings_.undo(mark);
                // A '!' inside the activated clause commits: no
                // further clauses for this goal.
                if (*barrier)
                    return false;
            } else {
                bindings_.undo(mark);
            }
            // A cut in the activation *containing* this goal fired
            // while a sibling backtracked: stop retrying entirely.
            if (parent_barrier && *parent_barrier)
                return false;
        }
        return false;
    }
};

/**
 * The variables of one solution's resolved bindings, by first
 * occurrence across all of them, with how often each occurs.
 */
class AnswerVars
{
  public:
    void
    clear()
    {
        vars_.clear();
        uses_.clear();
    }

    const std::vector<TermArena::Rename> &vars() const { return vars_; }

    /** Count the variables of @p t. */
    void
    count(const TermArena &arena, TermRef t)
    {
        switch (arena.kind(t)) {
          case TermKind::Var: {
            const term::VarId id = arena.varId(t);
            std::size_t i = 0;
            while (i < vars_.size() && vars_[i].from != id)
                ++i;
            if (i == vars_.size()) {
                vars_.push_back({id, arena.varName(t)});
                uses_.push_back(0);
            }
            ++uses_[i];
            return;
          }
          case TermKind::Struct:
          case TermKind::List:
            for (std::uint32_t i = 0; i < arena.arity(t); ++i)
                count(arena, arena.arg(t, i));
            if (arena.kind(t) == TermKind::List &&
                arena.listTail(t) != term::kNoTerm)
                count(arena, arena.listTail(t));
            return;
          default:
            return;
        }
    }

    /**
     * Name each nameless variable that occurs more than once `_<n>`,
     * n = 1, 2, ... by first occurrence, skipping a name that a named
     * variable of the answer holds; one that occurs once stays '_'.
     * @return whether any variable was named
     */
    bool
    nameShared(term::SymbolTable &symbols)
    {
        bool named = false;
        std::size_t n = 1;
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            if (vars_[i].name != term::kNoSymbol || uses_[i] == 1)
                continue;
            for (;; ++n) {
                const std::string fresh = "_" + std::to_string(n);
                const term::SymbolId id = symbols.lookup(fresh);
                if (id == term::kNoSymbol ||
                    std::none_of(vars_.begin(), vars_.end(),
                                 [id](const TermArena::Rename &v) {
                                     return v.name == id;
                                 })) {
                    vars_[i].name = symbols.intern(fresh);
                    ++n;
                    break;
                }
            }
            named = true;
        }
        return named;
    }

  private:
    std::vector<TermArena::Rename> vars_;
    std::vector<std::uint32_t> uses_;
};

} // namespace

std::vector<Solution>
Solver::solve(std::string_view query_text, SolveOptions options)
{
    term::TermReader reader(kb_.symbols());
    return solve(reader.parseQuery(query_text), options);
}

std::vector<Solution>
Solver::solve(const term::ParsedQuery &query, SolveOptions options)
{
    stats_ = SolveStats{};
    std::vector<Solution> solutions;

    SearchState state(kb_, options, stats_);
    auto query_barrier = std::make_shared<bool>(false);
    std::vector<GoalEntry> goals;
    goals.reserve(query.goals.size());
    for (TermRef g : query.goals)
        goals.push_back({state.arena().import(query.arena, g, 0),
                         query_barrier});

    // Every binding of a solution resolves into one arena, so an
    // unbound variable two bindings share is one variable there; a
    // shared nameless one is written under a name (AnswerVars).  The
    // arenas and scratch are reused from solution to solution.
    term::TermWriter writer(kb_.symbols());
    TermArena resolved, named;
    const TermArena::Mark resolved_empty = resolved.mark();
    const TermArena::Mark named_empty = named.mark();
    std::vector<TermRef> roots;
    AnswerVars vars;
    state.solve(goals, 0, [&]() {
        resolved.rewind(resolved_empty);
        roots.clear();
        vars.clear();
        for (const auto &kv : query.varNames) {
            TermRef v = state.arena().makeVar(kv.second, term::kNoSymbol);
            roots.push_back(unify::resolveTerm(state.arena(), v,
                                               state.bindings(), resolved));
            vars.count(resolved, roots.back());
        }
        const TermArena *shown = &resolved;
        if (vars.nameShared(kb_.symbols())) {
            named.rewind(named_empty);
            for (TermRef &root : roots)
                root = named.import(resolved, root, vars.vars());
            shown = &named;
        }
        Solution solution;
        std::size_t i = 0;
        for (const auto &kv : query.varNames)
            solution.bindings[kv.first] = writer.write(*shown, roots[i++]);
        solutions.push_back(std::move(solution));
        return solutions.size() >= options.maxSolutions;
    });
    return solutions;
}

} // namespace clare::kb
