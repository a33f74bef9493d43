#include "term/clause.hh"

#include <algorithm>
#include <iterator>

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
ClauseView::predicate() const
{
    if (arena->kind(head) == TermKind::Atom)
        return PredicateId{arena->atomSymbol(head), 0};
    return PredicateId{arena->functor(head), arena->arity(head)};
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

void
ClauseTable::add(const ClauseView &clause)
{
    TermArena &arena = last();
    Entry e;
    e.head = arena.import(*clause.arena, clause.head, 0);
    e.bodyBegin = static_cast<std::uint32_t>(goals_.size());
    e.bodyCount = static_cast<std::uint32_t>(clause.body.size());
    for (TermRef g : clause.body)
        goals_.push_back(arena.import(*clause.arena, g, 0));
    entries_.push_back(e);
}

void
ClauseTable::addAsRead(const ClauseView &clause)
{
    // The reader numbers variables in text order, and the writer
    // renders the head, then the goals, each in import order.
    std::vector<SymbolId> names;
    TermArena &arena = last();
    Entry e;
    e.head = arena.importByName(*clause.arena, clause.head, names);
    e.bodyBegin = static_cast<std::uint32_t>(goals_.size());
    e.bodyCount = static_cast<std::uint32_t>(clause.body.size());
    for (TermRef g : clause.body)
        goals_.push_back(arena.importByName(*clause.arena, g, names));
    entries_.push_back(e);
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
