/**
 * @file
 * Arena-based Prolog term representation.
 *
 * Terms are immutable nodes in a TermArena, referenced by dense 32-bit
 * TermRef handles.  The shapes mirror what the CLARE Pseudo In-line
 * Format can express: atoms, integers, floats, variables (named or
 * anonymous), structures, and lists that are either *terminated*
 * (proper, ending in []) or *unterminated* (ending in a tail
 * variable, e.g. [a,b|T]).
 *
 * Lists are stored flattened: a span of element terms plus an optional
 * tail variable.  This matches the PIF encoding, where a list item
 * carries an arity and its elements follow in-line.
 */

#ifndef CLARE_TERM_TERM_HH
#define CLARE_TERM_TERM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "support/arena.hh"
#include "term/symbol_table.hh"

namespace clare::term {

/** Handle to a term node within a TermArena. */
using TermRef = std::uint32_t;

/** Sentinel for "no term" (e.g. the tail of a proper list). */
constexpr TermRef kNoTerm = 0xffffffffu;

/** Identifier of a variable within one clause or query. */
using VarId = std::uint32_t;

/** The six term shapes. */
enum class TermKind : std::uint8_t
{
    Atom,
    Int,
    Float,
    Var,
    Struct,
    List,
};

/** Human-readable name of a TermKind. */
const char *termKindName(TermKind kind);

/**
 * Owns term nodes.  Construction is append-only; nodes are immutable
 * once created.  An arena is independent of any symbol table: it only
 * stores ids, so the same arena can be printed against any table that
 * interned the ids.
 */
class TermArena
{
  public:
    TermArena();

    /** Copies hold their nodes in storage sized exactly to them. */
    TermArena(const TermArena &other);
    TermArena &operator=(const TermArena &other);
    TermArena(TermArena &&other) noexcept;
    TermArena &operator=(TermArena &&other) noexcept;

    /** Number of nodes in the arena. */
    std::size_t size() const { return nodes_.size(); }

    /**
     * Discard every node in O(1): the backing bump arena rewinds and
     * keeps its high-water blocks, so a reused arena (one per server
     * connection, reset per request or batch) stops allocating once
     * warm.  All outstanding TermRefs become invalid.
     */
    void reset();

    /** Bytes retained by the backing bump arena. */
    std::size_t memoryFootprint() const { return mem_.capacityBytes(); }

    /**
     * Release growth slack: re-home the nodes in one exactly sized
     * block when the arena holds more than that (doubling growth and
     * the default first block leave room a kept arena never uses).
     * TermRefs stay valid.
     */
    void shrinkToFit();

    /**
     * How much the arena holds: node and argument-slot counts, plus
     * the variable ceiling.  Taken as a point rewind() returns to, or
     * as the size of a term to reserve() room for.
     */
    struct Mark
    {
        std::uint32_t nodes = 0;
        std::uint32_t args = 0;
        VarId varCeiling = 0;
    };

    Mark mark() const;

    /**
     * Room for @p more nodes and argument slots past the current ones,
     * sized exactly, so building them does not regrow the arena.  A
     * fresh arena takes them in one block.
     */
    void reserve(const Mark &more);

    /**
     * Count the nodes and argument slots a copy of @p t takes (what
     * import() adds) into @p into; its varCeiling is left alone.
     */
    void measure(TermRef t, Mark &into) const;

    /**
     * Drop every node made since @p m, keeping the memory for the
     * next ones: TermRefs below the mark stay valid, later ones die.
     */
    void rewind(const Mark &m);

    /** @name Constructors for each term shape. */
    /// @{
    TermRef makeAtom(SymbolId sym);
    TermRef makeInt(std::int64_t value);
    TermRef makeFloat(FloatId id);

    /**
     * Make a variable.  @p name is the interned source name, or
     * kNoSymbol for an anonymous variable ('_').  Anonymous variables
     * still get a VarId but are never shared.
     */
    TermRef makeVar(VarId var, SymbolId name = kNoSymbol);

    TermRef makeStruct(SymbolId functor, std::span<const TermRef> args);

    /**
     * Make a list with the given elements and tail.  @p tail is
     * kNoTerm for a terminated (proper) list, or a Var term for an
     * unterminated list.  An empty terminated list should instead be
     * the atom '[]' (use makeAtom(SymbolTable::kNil)).
     */
    TermRef makeList(std::span<const TermRef> elems, TermRef tail = kNoTerm);
    /// @}

    /** @name Accessors (each checks the node kind). */
    /// @{
    TermKind kind(TermRef t) const;
    SymbolId atomSymbol(TermRef t) const;
    std::int64_t intValue(TermRef t) const;
    FloatId floatId(TermRef t) const;
    VarId varId(TermRef t) const;
    SymbolId varName(TermRef t) const;
    bool isAnonymous(TermRef t) const;
    SymbolId functor(TermRef t) const;
    /** Arity of a Struct, or element count of a List. */
    std::uint32_t arity(TermRef t) const;
    TermRef arg(TermRef t, std::uint32_t i) const;
    /** Tail of a List: kNoTerm if terminated. */
    TermRef listTail(TermRef t) const;
    bool isTerminatedList(TermRef t) const;
    /// @}

    /**
     * Copy a term (recursively) from another arena into this one,
     * adding @p var_offset to every variable id so that the copy is
     * standardized apart from terms already present.
     *
     * @return the handle of the copied root in this arena.
     */
    TermRef import(const TermArena &src, TermRef t, VarId var_offset);

    /** A variable of a renaming: its source VarId, its name in the copy. */
    struct Rename
    {
        VarId from;
        SymbolId name;
    };

    /**
     * import() with every variable renamed by @p vars: its VarId in the
     * copy is the position of its source VarId in @p vars, and its name
     * the one held there.  Every variable of @p t must be listed.
     */
    TermRef import(const TermArena &src, TermRef t,
                   std::span<const Rename> vars);

    /** Deep structural equality between terms of two arenas. */
    static bool equal(const TermArena &a, TermRef ta,
                      const TermArena &b, TermRef tb);

    /** Largest VarId used plus one (0 if no variables). */
    VarId varCeiling() const { return varCeiling_; }

  private:
    /**
     * Bump-arena block size.  Most arenas hold one clause or goal of a
     * few nodes (a Program keeps one per clause), so blocks stay small;
     * the node and argument vectors of a large arena outgrow them and
     * get dedicated blocks sized to each request.
     */
    static constexpr std::size_t kBlockBytes = 256;

    /** 12 bytes: a Program holds one per term of every clause. */
    struct Node
    {
        std::uint32_t a;        // symbol / float or var id / low int
                                // bits / functor / list tail
        std::uint32_t b;        // var name / high int bits / first
                                // argument slot of a struct or list
        std::uint32_t kindCount; // kind in the top 3 bits, then the
                                 // argument count of a struct or list

        static constexpr std::uint32_t kCountBits = 29;

        Node(TermKind kind, std::uint32_t a_, std::uint32_t b_,
             std::uint32_t count = 0);

        TermKind kind() const
        {
            return static_cast<TermKind>(kindCount >> kCountBits);
        }
        std::uint32_t argsCount() const
        {
            return kindCount & ((1u << kCountBits) - 1);
        }
    };

    // Nodes and arg spans live in a block-chained bump arena held by
    // value: a move hands the blocks over without moving them, so the
    // ArenaVectors keep their storage.
    support::Arena mem_;
    support::ArenaVector<Node> nodes_;
    support::ArenaVector<TermRef> args_;
    VarId varCeiling_ = 0;

    /** Bytes the nodes and arg spans need, as the arena rounds them. */
    std::size_t exactBytes() const;

    const Node &node(TermRef t) const;
    TermRef push(Node n);

    /** import(), each variable node made by @p make_var. */
    template <typename MakeVar>
    TermRef importWith(const TermArena &src, TermRef t,
                       const MakeVar &make_var);
};

} // namespace clare::term

#endif // CLARE_TERM_TERM_HH
