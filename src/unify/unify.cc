#include "unify/unify.hh"

#include <vector>

#include "support/logging.hh"
#include "term/symbol_table.hh"

namespace clare::unify {

using term::kNoTerm;
using term::SymbolTable;
using term::TermArena;
using term::TermKind;
using term::TermRef;
using term::VarId;

namespace {

/** A list normalized against the current bindings. */
struct FlatList
{
    std::vector<TermRef> elems;
    /** kNoTerm when nil-terminated, else the (deref'd) tail term. */
    TermRef tail = kNoTerm;
};

/**
 * Flatten a list, following bound tail variables so that the element
 * count reflects the bindings in force.
 */
FlatList
flattenList(const TermArena &arena, TermRef t, const Bindings &bindings)
{
    FlatList flat;
    while (true) {
        clare_assert(arena.kind(t) == TermKind::List,
                     "flattenList on non-list");
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            flat.elems.push_back(arena.arg(t, i));
        TermRef tail = arena.listTail(t);
        if (tail == kNoTerm)
            return flat;
        tail = bindings.deref(arena, tail);
        if (arena.kind(tail) == TermKind::List) {
            t = tail;
            continue;
        }
        if (arena.kind(tail) == TermKind::Atom &&
            arena.atomSymbol(tail) == SymbolTable::kNil) {
            return flat;
        }
        flat.tail = tail;
        return flat;
    }
}

bool
occurs(const TermArena &arena, VarId var, TermRef t,
       const Bindings &bindings)
{
    t = bindings.deref(arena, t);
    switch (arena.kind(t)) {
      case TermKind::Var:
        return arena.varId(t) == var;
      case TermKind::Struct:
      case TermKind::List: {
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (occurs(arena, var, arena.arg(t, i), bindings))
                return true;
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != kNoTerm) {
            return occurs(arena, var, arena.listTail(t), bindings);
        }
        return false;
      }
      default:
        return false;
    }
}

bool unifyRec(TermArena &arena, TermRef a, TermRef b, Bindings &bindings,
              const UnifyOptions &options);

bool
bindVar(TermArena &arena, TermRef var_term, TermRef value,
        Bindings &bindings, const UnifyOptions &options)
{
    VarId var = arena.varId(var_term);
    if (arena.kind(value) == TermKind::Var && arena.varId(value) == var)
        return true;
    if (options.occursCheck && occurs(arena, var, value, bindings))
        return false;
    bindings.bind(var, value);
    return true;
}

bool
unifyLists(TermArena &arena, TermRef a, TermRef b, Bindings &bindings,
           const UnifyOptions &options)
{
    FlatList fa = flattenList(arena, a, bindings);
    FlatList fb = flattenList(arena, b, bindings);
    std::size_t common = std::min(fa.elems.size(), fb.elems.size());
    for (std::size_t i = 0; i < common; ++i)
        if (!unifyRec(arena, fa.elems[i], fb.elems[i], bindings, options))
            return false;

    auto tail_or_nil = [&](const FlatList &f) {
        return f.tail != kNoTerm
            ? f.tail : arena.makeAtom(SymbolTable::kNil);
    };

    if (fa.elems.size() == fb.elems.size())
        return unifyRec(arena, tail_or_nil(fa), tail_or_nil(fb),
                        bindings, options);

    const FlatList &longer = fa.elems.size() > fb.elems.size() ? fa : fb;
    const FlatList &shorter = fa.elems.size() > fb.elems.size() ? fb : fa;
    std::vector<TermRef> rest(longer.elems.begin() +
                              static_cast<std::ptrdiff_t>(common),
                              longer.elems.end());
    TermRef residual = arena.makeList(rest, longer.tail);
    return unifyRec(arena, residual, tail_or_nil(shorter), bindings,
                    options);
}

bool
unifyRec(TermArena &arena, TermRef a, TermRef b, Bindings &bindings,
         const UnifyOptions &options)
{
    a = bindings.deref(arena, a);
    b = bindings.deref(arena, b);
    TermKind ka = arena.kind(a);
    TermKind kb = arena.kind(b);

    if (ka == TermKind::Var)
        return bindVar(arena, a, b, bindings, options);
    if (kb == TermKind::Var)
        return bindVar(arena, b, a, bindings, options);

    if (ka == TermKind::List && kb == TermKind::List)
        return unifyLists(arena, a, b, bindings, options);
    if (ka != kb)
        return false;

    switch (ka) {
      case TermKind::Atom:
        return arena.atomSymbol(a) == arena.atomSymbol(b);
      case TermKind::Int:
        return arena.intValue(a) == arena.intValue(b);
      case TermKind::Float:
        return arena.floatId(a) == arena.floatId(b);
      case TermKind::Struct: {
        if (arena.functor(a) != arena.functor(b) ||
            arena.arity(a) != arena.arity(b)) {
            return false;
        }
        for (std::uint32_t i = 0; i < arena.arity(a); ++i)
            if (!unifyRec(arena, arena.arg(a, i), arena.arg(b, i),
                          bindings, options))
                return false;
        return true;
      }
      default:
        clare_panic("unreachable kind in unifyRec");
    }
}

} // namespace

bool
unifyTerms(TermArena &arena, TermRef a, TermRef b, Bindings &bindings,
           const UnifyOptions &options)
{
    bindings.grow(arena.varCeiling());
    TrailMark mark = bindings.mark();
    if (unifyRec(arena, a, b, bindings, options))
        return true;
    bindings.undo(mark);
    return false;
}

TermRef
resolveTerm(const TermArena &arena, TermRef t, const Bindings &bindings,
            TermArena &out)
{
    t = bindings.deref(arena, t);
    switch (arena.kind(t)) {
      case TermKind::Atom:
        return out.makeAtom(arena.atomSymbol(t));
      case TermKind::Int:
        return out.makeInt(arena.intValue(t));
      case TermKind::Float:
        return out.makeFloat(arena.floatId(t));
      case TermKind::Var:
        return out.makeVar(arena.varId(t), arena.varName(t));
      case TermKind::Struct: {
        std::vector<TermRef> args;
        args.reserve(arena.arity(t));
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            args.push_back(resolveTerm(arena, arena.arg(t, i), bindings,
                                       out));
        return out.makeStruct(arena.functor(t), args);
      }
      case TermKind::List: {
        std::vector<TermRef> elems;
        elems.reserve(arena.arity(t));
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            elems.push_back(resolveTerm(arena, arena.arg(t, i), bindings,
                                        out));
        TermRef tail = arena.listTail(t);
        TermRef out_tail = kNoTerm;
        if (tail != kNoTerm) {
            tail = bindings.deref(arena, tail);
            if (!(arena.kind(tail) == TermKind::Atom &&
                  arena.atomSymbol(tail) == SymbolTable::kNil)) {
                out_tail = resolveTerm(arena, tail, bindings, out);
            }
        }
        // Collapse a resolved list tail into a flat list.
        if (out_tail != kNoTerm && out.kind(out_tail) == TermKind::List) {
            for (std::uint32_t i = 0; i < out.arity(out_tail); ++i)
                elems.push_back(out.arg(out_tail, i));
            out_tail = out.listTail(out_tail);
        }
        return out.makeList(elems, out_tail);
      }
    }
    clare_panic("unreachable kind in resolveTerm");
}

RetractPattern::RetractPattern(const term::TermArena &arena,
                               term::TermRef pattern,
                               term::SymbolTable &symbols)
    : arena_(arena), symbols_(symbols), head_(pattern)
{
    if (arena.kind(pattern) == TermKind::Struct &&
        arena.functor(pattern) == symbols.intern(":-") &&
        arena.arity(pattern) == 2) {
        head_ = arena.arg(pattern, 0);
        body_ = arena.arg(pattern, 1);
    }
    pred_ = term::predicateOf(arena, head_);
}

bool
RetractPattern::matches(const term::ClauseView &clause) const
{
    if (body_ == term::kNoTerm && !clause.isFact())
        return false;
    term::TermArena scratch;
    const term::VarId offset = arena_.varCeiling();
    const TermRef goal_head = scratch.import(arena_, head_, 0);
    const TermRef clause_head =
        scratch.import(*clause.arena, clause.head, offset);
    Bindings bindings;
    if (!unifyTerms(scratch, goal_head, clause_head, bindings))
        return false;
    if (body_ == term::kNoTerm)
        return true;
    const TermRef goal_body = scratch.import(arena_, body_, 0);
    const TermRef clause_body =
        term::bodyTerm(scratch, symbols_, clause, offset);
    return unifyTerms(scratch, goal_body, clause_body, bindings);
}

} // namespace clare::unify
