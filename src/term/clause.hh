/**
 * @file
 * Clauses, predicates and programs.
 *
 * A Clause owns its term arena: every clause is independently
 * relocatable and can be imported into a runtime arena (standardized
 * apart) during resolution.  A Program groups clauses by predicate
 * (functor/arity) while preserving the *global, user-specified clause
 * order* — a property the paper's integrated knowledge base requires
 * and coupled Prolog/DB systems lose.
 */

#ifndef CLARE_TERM_CLAUSE_HH
#define CLARE_TERM_CLAUSE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "term/symbol_table.hh"
#include "term/term.hh"

namespace clare::term {

/** Identity of a predicate: functor symbol plus arity. */
struct PredicateId
{
    SymbolId functor = kNoSymbol;
    std::uint32_t arity = 0;

    auto operator<=>(const PredicateId &) const = default;
};

/**
 * The predicate a goal or clause head @p t names: an atom's name/0, or
 * a structure's functor and arity.
 * @throws FatalError when @p t is neither
 */
PredicateId predicateOf(const TermArena &arena, TermRef t);

/**
 * A read-only view of one clause whose terms live in a shared arena
 * (a ClauseTable, or a Clause's own arena).
 */
struct ClauseView
{
    const TermArena *arena = nullptr;
    TermRef head = kNoTerm;
    std::span<const TermRef> body;

    bool isFact() const { return body.empty(); }

    /** A fact whose head holds no variable. */
    bool isGroundFact() const;

    /** The predicate of the head. */
    PredicateId predicate() const;
};

/** A clause: a head and zero or more body goals, over one arena. */
class Clause
{
  public:
    Clause() = default;

    /** Construct from an arena (moved in), head, and body goals. */
    Clause(TermArena arena, TermRef head, std::vector<TermRef> body);

    Clause(const Clause &other);
    Clause &operator=(const Clause &other);
    Clause(Clause &&) noexcept = default;
    Clause &operator=(Clause &&) noexcept = default;

    const TermArena &arena() const { return arena_; }
    TermRef head() const { return head_; }
    std::span<const TermRef> body() const
    {
        return {body_.get(), bodySize_};
    }

    /** True for a clause with no body goals. */
    bool isFact() const { return bodySize_ == 0; }

    /**
     * True for a ground fact: no body and no variables anywhere in the
     * head.  Ground facts are what a coupled system would push to its
     * extensional database.
     */
    bool isGroundFact() const { return view().isGroundFact(); }

    /** Number of distinct variables in the clause. */
    VarId varCount() const { return arena_.varCeiling(); }

    /** The predicate this clause belongs to. */
    PredicateId predicate() const { return view().predicate(); }

    ClauseView view() const { return ClauseView{&arena_, head_, body()}; }

  private:
    TermArena arena_;
    TermRef head_ = kNoTerm;
    // Not a std::vector: a Program holds one Clause per clause, and
    // most are facts, so the body costs one word plus a count.
    std::uint32_t bodySize_ = 0;
    std::unique_ptr<TermRef[]> body_;
};

/**
 * Many clauses decoded into shared arenas, in insertion order.  Unlike
 * a vector of Clause — one arena (and its first block) per clause —
 * the table holds every head and body in one arena per reserve() (a
 * build reserves once, a load once per batch) plus two flat index
 * vectors, so a large predicate costs a few bytes per term node.  Each
 * clause keeps its own variable numbering from 0, and readers
 * standardize apart on import exactly as they would from the clause's
 * own arena.  A store's table holds each clause in its stored form
 * (storedClause()), which a build copies in (add(clause, symbols)) and
 * a load parses from the record text; both give the same clause.
 */
class ClauseTable
{
  public:
    /** What adding some clauses takes, counted for reserve(). */
    struct Size
    {
        std::size_t clauses = 0;
        std::size_t goals = 0;
        TermArena::Mark terms;  ///< nodes and argument slots

        /** Count @p clause in. */
        void add(const ClauseView &clause);
    };

    /**
     * Room for exactly @p more: a table filled to its reserves holds
     * no growth slack (exactly sized index vectors, and one arena
     * block per reserve: the clauses added after a reserve() on a
     * non-empty table go into an arena of their own).
     */
    void reserve(const Size &more);

    /**
     * Append a copy of @p clause as it is, variable ids and names
     * unchanged: a clause already in its stored form (a parse of its
     * text), or an in-memory predicate's snapshot.
     */
    void add(const ClauseView &clause);
    void add(const Clause &clause) { add(clause.view()); }

    /**
     * Append @p clause in its stored form (see storedClause()) and
     * return the copy, valid until the table next grows.
     * @throws FatalError for a clause no text can carry
     */
    ClauseView add(const ClauseView &clause, SymbolTable &symbols);

    std::size_t size() const { return entries_.size(); }

    ClauseView view(std::size_t i) const;

    /** Heap bytes held (arena blocks plus the index vectors). */
    std::size_t memoryBytes() const;

  private:
    struct Entry
    {
        TermRef head;
        std::uint32_t bodyBegin;
        std::uint32_t bodyCount;
    };

    /** The arenas after the first: each with the entry it begins at. */
    struct Run
    {
        std::size_t begin;
        std::unique_ptr<TermArena> arena;
    };

    /** The arena clauses are added to. */
    TermArena &last() { return runs_.empty() ? arena_ : *runs_.back().arena; }

    /** Append a clause of @p head and @p body, each term by @p copy. */
    template <typename Copy>
    ClauseView append(TermRef head, std::span<const TermRef> body,
                      const Copy &copy);

    TermArena arena_;
    std::vector<Run> runs_;
    std::vector<Entry> entries_;
    std::vector<TermRef> goals_;
};

/**
 * @p clause in its stored form, in an arena of its own: the one form
 * a stored clause takes, in its record, its index entry, its decoded
 * table entry and its WAL text alike.  TermReader reads the text
 * TermWriter renders for it back as this very form, node for node.
 *
 *  - Variables are numbered from 0 by the first occurrence of their
 *    identity (VarId), never by name: the head, then each goal, each
 *    term's arguments left to right and a list's tail after its
 *    elements.  That is the numbering the reader gives the text.
 *  - A nameless variable that occurs once stays anonymous ('_').
 *  - Every other variable is named: its own name when that is a
 *    variable token no earlier variable holds, else "_<n>", a name
 *    the clause does not use.
 *  - A last goal that is a ','/2 conjunction is split into its
 *    goals, as the reader splits a body.
 *
 * A parsed clause is in its stored form already.
 * @throws FatalError for a clause no text can carry: one holding a
 *         non-finite float, or a list whose tail is not a variable
 *         (the reader splices "[a|[b]]" into one list, and the solver's
 *         resolved terms are spliced the same way)
 */
Clause storedClause(const ClauseView &clause, SymbolTable &symbols);

/**
 * The body of @p clause as one goal term in @p into: the right-nested
 * ','/2 conjunction of its goals, or 'true' for a fact, with
 * @p offset added to every variable id (what a retract pattern's
 * body unifies with).
 */
TermRef bodyTerm(TermArena &into, SymbolTable &symbols,
                 const ClauseView &clause, VarId offset);

/**
 * An ordered set of clauses.  Clause order is the order of addition
 * (source order); per-predicate views preserve that relative order.
 */
class Program
{
  public:
    /** Append a clause, returning its global ordinal. */
    std::size_t add(Clause clause);

    /**
     * Add a clause at the *front* of its predicate's clause list
     * (asserta).  The clause still gets the next global ordinal; only
     * the per-predicate order puts it first.
     */
    std::size_t addFront(Clause clause);

    /**
     * Remove a clause from its predicate's list (retract).  The
     * stored clause data remains addressable by ordinal; it is simply
     * no longer part of the predicate.
     */
    void remove(std::size_t ordinal);

    std::size_t size() const { return clauses_.size(); }
    const Clause &clause(std::size_t i) const;

    /** Make room for @p clauses clauses in all without regrowing. */
    void reserve(std::size_t clauses) { clauses_.reserve(clauses); }

    /** Global ordinals of a predicate's clauses, in source order. */
    const std::vector<std::size_t> &
    clausesOf(const PredicateId &pred) const;

    /** All predicates, in first-appearance order. */
    const std::vector<PredicateId> &predicates() const { return predicates_; }

    /**
     * True if the predicate mixes ground facts with rules or non-ground
     * facts — the "mixed relation" case coupled systems disallow.
     */
    bool isMixedRelation(const PredicateId &pred) const;

  private:
    std::vector<Clause> clauses_;
    std::vector<PredicateId> predicates_;
    std::map<PredicateId, std::vector<std::size_t>> byPred_;

    static const std::vector<std::size_t> kEmpty;
};

} // namespace clare::term

#endif // CLARE_TERM_CLAUSE_HH
