#include "pif/encoder.hh"

#include <map>

#include "support/logging.hh"

namespace clare::pif {

using term::TermArena;
using term::TermKind;
using term::TermRef;

/** Per-encoding state: variable slot assignment and pointer allocation. */
struct Encoder::VarMap
{
    std::map<term::VarId, std::uint32_t> slots;
    std::uint32_t nextSlot = 0;
    std::uint32_t nextPointer = 1;

    /** Assign (or recall) a slot; sets @p first on first occurrence. */
    std::uint32_t
    slotFor(term::VarId var, bool &first)
    {
        auto it = slots.find(var);
        if (it != slots.end()) {
            first = false;
            return it->second;
        }
        first = true;
        std::uint32_t slot = nextSlot++;
        slots.emplace(var, slot);
        return slot;
    }

    /** Allocate a clause-local pseudo heap pointer. */
    std::uint32_t allocPointer() { return nextPointer++; }
};

std::size_t
itemWidth(const std::vector<PifItem> &items, std::size_t i)
{
    clare_assert(i < items.size(), "item index %zu out of range", i);
    const PifItem &item = items[i];
    if (isInlineComplexTag(item.tag)) {
        std::size_t w = 1 + tagArity(item.tag);
        clare_assert(i + w <= items.size(),
                     "in-line complex item overruns the stream");
        return w;
    }
    return 1;
}

PifItem
Encoder::variableItem(const TermArena &arena, TermRef t, Side side,
                      VarMap &vars) const
{
    if (arena.isAnonymous(t))
        return PifItem{kAnonymousVar, 0, 0};
    bool first = false;
    std::uint32_t slot = vars.slotFor(arena.varId(t), first);
    Tag tag;
    if (side == Side::Query)
        tag = first ? kFirstQueryVar : kSubQueryVar;
    else
        tag = first ? kFirstDbVar : kSubDbVar;
    return PifItem{tag, slot, 0};
}

PifItem
Encoder::pointerItem(const TermArena &arena, TermRef t, VarMap &vars) const
{
    TermKind k = arena.kind(t);
    std::uint32_t arity = arena.arity(t);
    // Arities wider than the 5-bit field saturate at 31; the matcher
    // treats a saturated field as "31 or more" (a documented false-drop
    // source, mirroring the paper's truncation effects).
    std::uint32_t field = arity > kMaxInlineArity ? kMaxInlineArity : arity;
    if (k == TermKind::Struct) {
        PifItem item;
        item.tag = makeComplexTag(kStructPointerBase, field);
        item.content = arena.functor(t);
        item.extension = vars.allocPointer();
        return item;
    }
    clare_assert(k == TermKind::List, "pointer item for non-complex term");
    Tag base = arena.isTerminatedList(t)
        ? kTermListPointerBase : kUntermListPointerBase;
    PifItem item;
    item.tag = makeComplexTag(base, field);
    item.content = vars.allocPointer();
    return item;
}

void
Encoder::encodeOne(const TermArena &arena, TermRef t, Side side,
                   int depth, VarMap &vars,
                   std::vector<PifItem> &out) const
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
        out.push_back(PifItem{kAtomPointer, arena.atomSymbol(t), 0});
        return;
      case TermKind::Float:
        out.push_back(PifItem{kFloatPointer, arena.floatId(t), 0});
        return;
      case TermKind::Int: {
        std::int64_t v = arena.intValue(t);
        if (!PifItem::integerFits(v))
            clare_fatal("integer %lld exceeds the PIF 36-bit in-line "
                        "range", static_cast<long long>(v));
        out.push_back(PifItem::makeInteger(v));
        return;
      }
      case TermKind::Var:
        out.push_back(variableItem(arena, t, side, vars));
        return;
      case TermKind::Struct: {
        std::uint32_t arity = arena.arity(t);
        if (depth > 0 || arity > kMaxInlineArity) {
            out.push_back(pointerItem(arena, t, vars));
            return;
        }
        PifItem head;
        head.tag = makeComplexTag(kStructInlineBase, arity);
        head.content = arena.functor(t);
        out.push_back(head);
        for (std::uint32_t i = 0; i < arity; ++i)
            encodeOne(arena, arena.arg(t, i), side, depth + 1, vars, out);
        return;
      }
      case TermKind::List: {
        std::uint32_t arity = arena.arity(t);
        if (depth > 0 || arity > kMaxInlineArity) {
            out.push_back(pointerItem(arena, t, vars));
            return;
        }
        Tag base = arena.isTerminatedList(t)
            ? kTermListInlineBase : kUntermListInlineBase;
        PifItem head;
        head.tag = makeComplexTag(base, arity);
        head.content = 0;
        out.push_back(head);
        for (std::uint32_t i = 0; i < arity; ++i)
            encodeOne(arena, arena.arg(t, i), side, depth + 1, vars, out);
        // The tail variable of an unterminated list is not emitted as
        // an item: the hardware's element counters carry only the
        // explicit arity, and the tail takes part only in host-side
        // full unification.
        return;
      }
    }
    clare_panic("unreachable term kind");
}

EncodedArgs
Encoder::encodeArgs(const TermArena &arena, TermRef head_or_goal,
                    Side side) const
{
    EncodedArgs result;
    encodeArgsInto(arena, head_or_goal, side, result);
    return result;
}

void
Encoder::encodeArgsInto(const TermArena &arena, TermRef head_or_goal,
                        Side side, EncodedArgs &out) const
{
    out.items.clear();
    out.argIndex.clear();
    out.varSlots = 0;
    TermKind k = arena.kind(head_or_goal);
    if (k == TermKind::Atom) {
        // Arity-0 predicate: empty argument stream.
        return;
    }
    if (k != TermKind::Struct)
        clare_fatal("can only encode the arguments of an atom or "
                    "structure, got %s", term::termKindName(k));
    VarMap vars;
    std::uint32_t arity = arena.arity(head_or_goal);
    for (std::uint32_t i = 0; i < arity; ++i) {
        out.argIndex.push_back(out.items.size());
        encodeOne(arena, arena.arg(head_or_goal, i), side, 0, vars,
                  out.items);
    }
    out.varSlots = vars.nextSlot;
}

EncodedArgs
Encoder::encodeTerm(const TermArena &arena, TermRef t, Side side) const
{
    EncodedArgs result;
    VarMap vars;
    result.argIndex.push_back(0);
    encodeOne(arena, t, side, 0, vars, result.items);
    result.varSlots = vars.nextSlot;
    return result;
}

} // namespace clare::pif
