/**
 * @file
 * Compiles Prolog terms into Pseudo In-line Format item streams.
 *
 * The encoder implements the level-3 layout the FS2 hardware expects:
 * the arguments of a clause head (or of a query goal) are emitted in
 * order; a complex argument of arity <= 31 is emitted *in-line* (its
 * header item followed by one item per top-level element), and any
 * complex term nested below that first level — or wider than 31 — is
 * emitted as a pointer item.  This single-level in-lining is exactly
 * why the engine performs level-3 (first-level structure) matching:
 * the hardware has one element counter per side, so in-line nesting
 * cannot recurse.
 *
 * Variable items carry the variable's binding-store slot in their
 * content field; the first occurrence within the clause (or query)
 * gets a First tag and later occurrences a Subsequent tag, with query
 * and database sides using their respective tag pairs.  Anonymous
 * variables always encode as the anonymous tag.
 */

#ifndef CLARE_PIF_ENCODER_HH
#define CLARE_PIF_ENCODER_HH

#include <cstdint>
#include <vector>

#include "pif/pif_item.hh"
#include "term/term.hh"

namespace clare::pif {

/** Which side of the match a stream is compiled for. */
enum class Side : std::uint8_t
{
    Db,     ///< disk-resident clause head (DV tags)
    Query,  ///< query goal (QV tags)
};

/** An encoded argument stream plus its navigation index. */
struct EncodedArgs
{
    /** The item stream, arguments in order. */
    std::vector<PifItem> items;

    /** Index into items where each argument starts. */
    std::vector<std::size_t> argIndex;

    /** Number of distinct non-anonymous variable slots used. */
    std::uint32_t varSlots = 0;

    std::size_t argCount() const { return argIndex.size(); }
};

/**
 * Number of items occupied by the argument (or element) whose header
 * item sits at @p i: 1 + arity for an in-line complex item, else 1.
 */
std::size_t itemWidth(const std::vector<PifItem> &items, std::size_t i);

/** Stateless term-to-PIF compiler. */
class Encoder
{
  public:
    /**
     * Encode the arguments of @p head_or_goal, which must be an atom
     * (arity 0 — empty stream) or a structure.
     */
    EncodedArgs encodeArgs(const term::TermArena &arena,
                           term::TermRef head_or_goal, Side side) const;

    /**
     * encodeArgs() into @p out, reusing its vectors: a loop encoding
     * into one scratch stream stops allocating once it is warm.
     */
    void encodeArgsInto(const term::TermArena &arena,
                        term::TermRef head_or_goal, Side side,
                        EncodedArgs &out) const;

    /** Encode one standalone term as a single argument. */
    EncodedArgs encodeTerm(const term::TermArena &arena,
                           term::TermRef t, Side side) const;

  private:
    struct VarMap;

    void encodeOne(const term::TermArena &arena, term::TermRef t,
                   Side side, int depth, VarMap &vars,
                   std::vector<PifItem> &out) const;

    PifItem variableItem(const term::TermArena &arena, term::TermRef t,
                         Side side, VarMap &vars) const;
    PifItem pointerItem(const term::TermArena &arena, term::TermRef t,
                        VarMap &vars) const;
};

} // namespace clare::pif

#endif // CLARE_PIF_ENCODER_HH
