#include "term/clause.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <string>

#include "support/logging.hh"

namespace clare::term {

const std::vector<std::size_t> Program::kEmpty;

namespace {

std::unique_ptr<TermRef[]>
copyBody(std::span<const TermRef> body)
{
    if (body.empty())
        return nullptr;
    auto out = std::make_unique<TermRef[]>(body.size());
    std::copy(body.begin(), body.end(), out.get());
    return out;
}

} // namespace

Clause::Clause(TermArena arena, TermRef head, std::vector<TermRef> body)
    : arena_(std::move(arena)), head_(head),
      bodySize_(static_cast<std::uint32_t>(body.size())),
      body_(copyBody(body))
{
    // A Program keeps one arena per clause for as long as it lives,
    // so it holds the terms in exactly sized storage.
    arena_.shrinkToFit();
    TermKind k = arena_.kind(head_);
    if (k != TermKind::Atom && k != TermKind::Struct)
        clare_fatal("clause head must be an atom or structure, got %s",
                    termKindName(k));
}

Clause::Clause(const Clause &other)
    : arena_(other.arena_), head_(other.head_),
      bodySize_(other.bodySize_), body_(copyBody(other.body()))
{
}

Clause &
Clause::operator=(const Clause &other)
{
    if (this != &other)
        *this = Clause(other);
    return *this;
}

namespace {

bool
groundTerm(const TermArena &arena, TermRef t)
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
      case TermKind::Int:
      case TermKind::Float:
        return true;
      case TermKind::Var:
        return false;
      case TermKind::Struct:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (!groundTerm(arena, arena.arg(t, i)))
                return false;
        return true;
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (!groundTerm(arena, arena.arg(t, i)))
                return false;
        return arena.isTerminatedList(t);
    }
    clare_panic("unreachable term kind");
}

} // namespace

bool
ClauseView::isGroundFact() const
{
    return isFact() && groundTerm(*arena, head);
}

PredicateId
predicateOf(const TermArena &arena, TermRef t)
{
    if (arena.kind(t) == TermKind::Atom)
        return PredicateId{arena.atomSymbol(t), 0};
    if (arena.kind(t) != TermKind::Struct)
        clare_fatal("a goal or clause head must be an atom or structure, "
                    "not %s", termKindName(arena.kind(t)));
    return PredicateId{arena.functor(t), arena.arity(t)};
}

PredicateId
ClauseView::predicate() const
{
    return predicateOf(*arena, head);
}

void
ClauseTable::Size::add(const ClauseView &clause)
{
    ++clauses;
    goals += clause.body.size();
    clause.arena->measure(clause.head, terms);
    for (TermRef g : clause.body)
        clause.arena->measure(g, terms);
}

void
ClauseTable::reserve(const Size &more)
{
    // Growing a filled arena would copy it and strand the old block;
    // a new arena takes the new clauses instead.
    if (!entries_.empty())
        runs_.push_back(Run{entries_.size(), std::make_unique<TermArena>()});
    last().reserve(more.terms);
    entries_.reserve(entries_.size() + more.clauses);
    goals_.reserve(goals_.size() + more.goals);
}

namespace {

/**
 * A variable token: an uppercase letter or '_' first, then letters,
 * digits and '_'; '_' alone is the anonymous variable.
 */
bool
isVariableToken(const std::string &name)
{
    if (name.empty() || name == "_" ||
        !(std::isupper(static_cast<unsigned char>(name[0])) ||
          name[0] == '_'))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    });
}

/**
 * The stored form of one clause (storedClause()): its goals as
 * stored, and each variable's VarId and name in it.
 */
class StoredForm
{
  public:
    StoredForm(const ClauseView &clause, SymbolTable &symbols)
        : goals_(clause.body.begin(), clause.body.end())
    {
        // The reader splits a body at every ',' of its right spine, so
        // a last goal that is a conjunction is stored as its goals.
        const TermArena &arena = *clause.arena;
        const SymbolId comma = symbols.lookup(",");
        for (TermRef g = goals_.empty() ? kNoTerm : goals_.back();
             g != kNoTerm && arena.kind(g) == TermKind::Struct &&
             arena.functor(g) == comma && arena.arity(g) == 2;
             g = goals_.back()) {
            goals_.back() = arena.arg(g, 0);
            goals_.push_back(arena.arg(g, 1));
        }
        scan(arena, clause.head, symbols);
        for (TermRef g : goals_)
            scan(arena, g, symbols);
        name(symbols);
    }

    std::span<const TermRef> goals() const { return goals_; }
    std::span<const TermArena::Rename> vars() const { return vars_; }

  private:
    std::vector<TermRef> goals_;
    /** The variables by first occurrence, each with its name there. */
    std::vector<TermArena::Rename> vars_;
    std::vector<std::uint32_t> uses_;

    void
    scan(const TermArena &arena, TermRef t, const SymbolTable &symbols)
    {
        switch (arena.kind(t)) {
          case TermKind::Atom:
          case TermKind::Int:
            return;
          case TermKind::Float: {
            const double v = symbols.floatValue(arena.floatId(t));
            if (!std::isfinite(v))
                clare_fatal("no clause text can carry the float %g", v);
            return;
          }
          case TermKind::Var: {
            const VarId id = arena.varId(t);
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
                scan(arena, arena.arg(t, i), symbols);
            if (arena.kind(t) == TermKind::Struct ||
                arena.isTerminatedList(t))
                return;
            // Neither the reader nor the solver makes another tail.
            if (arena.kind(arena.listTail(t)) != TermKind::Var)
                clare_fatal("no clause text can carry a list whose tail "
                            "is not a variable");
            scan(arena, arena.listTail(t), symbols);
            return;
        }
    }

    /** Settle each variable's name, once every name is known. */
    void
    name(SymbolTable &symbols)
    {
        auto holder = [this](SymbolId name) {
            return std::find_if(vars_.begin(), vars_.end(),
                                [name](const TermArena::Rename &v) {
                                    return v.name == name;
                                });
        };
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            SymbolId &name = vars_[i].name;
            if (name == kNoSymbol ? uses_[i] == 1
                    : isVariableToken(symbols.name(name)) &&
                      holder(name) == vars_.begin() + i)
                continue;
            for (std::size_t n = i;; ++n) {
                const std::string fresh = "_" + std::to_string(n);
                const SymbolId id = symbols.lookup(fresh);
                if (id == kNoSymbol || holder(id) == vars_.end()) {
                    name = symbols.intern(fresh);
                    break;
                }
            }
        }
    }
};

} // namespace

template <typename Copy>
ClauseView
ClauseTable::append(TermRef head, std::span<const TermRef> body,
                    const Copy &copy)
{
    TermArena &arena = last();
    Entry e;
    e.head = copy(arena, head);
    e.bodyBegin = static_cast<std::uint32_t>(goals_.size());
    e.bodyCount = static_cast<std::uint32_t>(body.size());
    for (TermRef g : body)
        goals_.push_back(copy(arena, g));
    entries_.push_back(e);
    return ClauseView{&arena, e.head,
                      std::span<const TermRef>(goals_.data() + e.bodyBegin,
                                               e.bodyCount)};
}

void
ClauseTable::add(const ClauseView &clause)
{
    append(clause.head, clause.body, [&clause](TermArena &arena, TermRef t) {
        return arena.import(*clause.arena, t, 0);
    });
}

ClauseView
ClauseTable::add(const ClauseView &clause, SymbolTable &symbols)
{
    const StoredForm form(clause, symbols);
    return append(clause.head, form.goals(),
                  [&](TermArena &arena, TermRef t) {
                      return arena.import(*clause.arena, t, form.vars());
                  });
}

Clause
storedClause(const ClauseView &clause, SymbolTable &symbols)
{
    ClauseTable table;
    const ClauseView stored = table.add(clause, symbols);
    return Clause(*stored.arena, stored.head,
                  {stored.body.begin(), stored.body.end()});
}

TermRef
bodyTerm(TermArena &into, SymbolTable &symbols, const ClauseView &clause,
         VarId offset)
{
    if (clause.isFact())
        return into.makeAtom(symbols.intern("true"));
    TermRef conj = into.import(*clause.arena, clause.body.back(), offset);
    for (std::size_t i = clause.body.size() - 1; i-- > 0;) {
        TermRef args[] = {into.import(*clause.arena, clause.body[i], offset),
                          conj};
        conj = into.makeStruct(symbols.intern(","), args);
    }
    return conj;
}

ClauseView
ClauseTable::view(std::size_t i) const
{
    clare_assert(i < entries_.size(), "clause %zu outside a table of %zu",
                 i, entries_.size());
    const TermArena *arena = &arena_;
    if (!runs_.empty() && i >= runs_.front().begin) {
        auto run = std::upper_bound(
            runs_.begin(), runs_.end(), i,
            [](std::size_t j, const Run &r) { return j < r.begin; });
        arena = std::prev(run)->arena.get();
    }
    const Entry &e = entries_[i];
    return ClauseView{arena, e.head,
                      std::span<const TermRef>(goals_.data() + e.bodyBegin,
                                               e.bodyCount)};
}

std::size_t
ClauseTable::memoryBytes() const
{
    std::size_t n = arena_.memoryFootprint() +
        runs_.capacity() * sizeof(Run) +
        entries_.capacity() * sizeof(Entry) +
        goals_.capacity() * sizeof(TermRef);
    for (const Run &run : runs_)
        n += sizeof(TermArena) + run.arena->memoryFootprint();
    return n;
}

std::size_t
Program::add(Clause clause)
{
    PredicateId pred = clause.predicate();
    std::size_t ordinal = clauses_.size();
    clauses_.push_back(std::move(clause));
    auto it = byPred_.find(pred);
    if (it == byPred_.end()) {
        predicates_.push_back(pred);
        it = byPred_.emplace(pred, std::vector<std::size_t>{}).first;
    }
    it->second.push_back(ordinal);
    return ordinal;
}

std::size_t
Program::addFront(Clause clause)
{
    PredicateId pred = clause.predicate();
    std::size_t ordinal = clauses_.size();
    clauses_.push_back(std::move(clause));
    auto it = byPred_.find(pred);
    if (it == byPred_.end()) {
        predicates_.push_back(pred);
        it = byPred_.emplace(pred, std::vector<std::size_t>{}).first;
    }
    it->second.insert(it->second.begin(), ordinal);
    return ordinal;
}

void
Program::remove(std::size_t ordinal)
{
    clare_assert(ordinal < clauses_.size(),
                 "removing unknown clause %zu", ordinal);
    PredicateId pred = clauses_[ordinal].predicate();
    auto it = byPred_.find(pred);
    clare_assert(it != byPred_.end(), "clause predicate not indexed");
    auto &ordinals = it->second;
    auto pos = std::find(ordinals.begin(), ordinals.end(), ordinal);
    clare_assert(pos != ordinals.end(), "clause already removed");
    ordinals.erase(pos);
}

const Clause &
Program::clause(std::size_t i) const
{
    clare_assert(i < clauses_.size(), "clause ordinal %zu out of range", i);
    return clauses_[i];
}

const std::vector<std::size_t> &
Program::clausesOf(const PredicateId &pred) const
{
    auto it = byPred_.find(pred);
    return it == byPred_.end() ? kEmpty : it->second;
}

bool
Program::isMixedRelation(const PredicateId &pred) const
{
    bool sawGround = false;
    bool sawOther = false;
    for (std::size_t i : clausesOf(pred)) {
        if (clauses_[i].isGroundFact())
            sawGround = true;
        else
            sawOther = true;
    }
    return sawGround && sawOther;
}

} // namespace clare::term
