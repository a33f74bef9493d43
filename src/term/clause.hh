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
    bool isGroundFact() const;

    /** Number of distinct variables in the clause. */
    VarId varCount() const { return arena_.varCeiling(); }

    /** The predicate this clause belongs to. */
    PredicateId predicate() const;

  private:
    TermArena arena_;
    TermRef head_ = kNoTerm;
    // Not a std::vector: a Program holds one Clause per clause, and
    // most are facts, so the body costs one word plus a count.
    std::uint32_t bodySize_ = 0;
    std::unique_ptr<TermRef[]> body_;

    static bool groundTerm(const TermArena &arena, TermRef t);
};

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
};

/**
 * Many clauses decoded into one shared arena, in insertion order.
 * Unlike a vector of Clause — one arena (and its first block) per
 * clause — the table holds every head and body in a single arena plus
 * two flat index vectors, so a large predicate costs a few bytes per
 * term node.  Variable ids are copied unchanged: each clause keeps its
 * own numbering from 0, and readers standardize apart on import
 * exactly as they would from the clause's own arena.
 */
class ClauseTable
{
  public:
    /** Append a copy of @p clause. */
    void add(const Clause &clause);

    /**
     * Release growth slack: the arena's vectors double as clauses are
     * added, leaving relocated copies behind in the bump arena.  A
     * finished table is copied once into exactly sized storage.
     */
    void shrinkToFit();

    /**
     * Room for @p clauses more clauses whose terms total @p terms, so
     * adding them does not regrow the table.
     */
    void reserve(std::size_t clauses, const TermArena::Mark &terms);

    std::size_t size() const { return entries_.size(); }

    ClauseView view(std::size_t i) const;

    /** Heap bytes held (arena blocks plus the index vectors). */
    std::size_t memoryBytes() const
    {
        return arena_.memoryFootprint() +
            entries_.capacity() * sizeof(Entry) +
            goals_.capacity() * sizeof(TermRef);
    }

  private:
    struct Entry
    {
        TermRef head;
        std::uint32_t bodyBegin;
        std::uint32_t bodyCount;
    };

    void add(const TermArena &arena, TermRef head,
             std::span<const TermRef> body);

    TermArena arena_;
    std::vector<Entry> entries_;
    std::vector<TermRef> goals_;
};

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
