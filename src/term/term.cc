#include "term/term.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"

namespace clare::term {

const char *
termKindName(TermKind kind)
{
    switch (kind) {
      case TermKind::Atom: return "atom";
      case TermKind::Int: return "int";
      case TermKind::Float: return "float";
      case TermKind::Var: return "var";
      case TermKind::Struct: return "struct";
      case TermKind::List: return "list";
    }
    return "?";
}

TermArena::TermArena()
    : mem_(kBlockBytes)
{
}

TermArena::TermArena(const TermArena &other)
    : TermArena()
{
    *this = other;
}

TermArena &
TermArena::operator=(const TermArena &other)
{
    if (this == &other)
        return *this;
    reset();
    // One exactly sized block for both spans (unless a retained block
    // already has the room), each vector sized to its contents.
    mem_.reserve(other.exactBytes());
    nodes_.reserve(mem_, other.nodes_.size());
    args_.reserve(mem_, other.args_.size());
    nodes_.append(mem_, other.nodes_.data(), other.nodes_.size());
    args_.append(mem_, other.args_.data(), other.args_.size());
    varCeiling_ = other.varCeiling_;
    return *this;
}

TermArena::TermArena(TermArena &&other) noexcept
    : mem_(std::move(other.mem_)), nodes_(other.nodes_),
      args_(other.args_), varCeiling_(other.varCeiling_)
{
    other.reset();
}

TermArena &
TermArena::operator=(TermArena &&other) noexcept
{
    if (this != &other) {
        mem_ = std::move(other.mem_);
        nodes_ = other.nodes_;
        args_ = other.args_;
        varCeiling_ = other.varCeiling_;
        other.reset();
    }
    return *this;
}

void
TermArena::reset()
{
    mem_.reset();
    nodes_.detach();
    args_.detach();
    varCeiling_ = 0;
}

TermArena::Node::Node(TermKind kind, std::uint32_t a_, std::uint32_t b_,
                      std::uint32_t count)
    : a(a_), b(b_),
      kindCount(static_cast<std::uint32_t>(kind) << kCountBits | count)
{
    clare_assert(count >> kCountBits == 0,
                 "%u arguments overflow a term node", count);
}

std::size_t
TermArena::exactBytes() const
{
    static_assert(sizeof(Node) == 12, "term nodes stay 12 bytes");
    auto round8 = [](std::size_t n) { return (n + 7) & ~std::size_t{7}; };
    return round8(nodes_.size() * sizeof(Node)) +
        round8(args_.size() * sizeof(TermRef));
}

void
TermArena::shrinkToFit()
{
    if (memoryFootprint() > exactBytes())
        *this = TermArena(*this);
}

TermArena::Mark
TermArena::mark() const
{
    return Mark{static_cast<std::uint32_t>(nodes_.size()),
                static_cast<std::uint32_t>(args_.size()), varCeiling_};
}

void
TermArena::reserve(const Mark &more)
{
    auto round8 = [](std::size_t n) { return (n + 7) & ~std::size_t{7}; };
    mem_.reserve(round8(more.nodes * sizeof(Node)) +
                 round8(more.args * sizeof(TermRef)));
    nodes_.reserve(mem_, nodes_.size() + more.nodes);
    args_.reserve(mem_, args_.size() + more.args);
}

void
TermArena::measure(TermRef t, Mark &into) const
{
    const Node &n = node(t);
    ++into.nodes;
    if (n.kind() != TermKind::Struct && n.kind() != TermKind::List)
        return;
    into.args += n.argsCount();
    for (std::uint32_t i = 0; i < n.argsCount(); ++i)
        measure(args_[n.b + i], into);
    if (n.kind() == TermKind::List && n.a != kNoTerm)
        measure(n.a, into);
}

void
TermArena::rewind(const Mark &m)
{
    clare_assert(m.nodes <= nodes_.size() && m.args <= args_.size(),
                 "rewind past the end of the arena");
    nodes_.resize(mem_, m.nodes);
    args_.resize(mem_, m.args);
    varCeiling_ = m.varCeiling;
}

const TermArena::Node &
TermArena::node(TermRef t) const
{
    clare_assert(t < nodes_.size(), "term ref %u out of range", t);
    return nodes_[t];
}

TermRef
TermArena::push(Node n)
{
    TermRef r = static_cast<TermRef>(nodes_.size());
    nodes_.push_back(mem_, n);
    return r;
}

TermRef
TermArena::makeAtom(SymbolId sym)
{
    return push(Node(TermKind::Atom, sym, 0));
}

TermRef
TermArena::makeInt(std::int64_t value)
{
    std::uint64_t u = static_cast<std::uint64_t>(value);
    return push(Node(TermKind::Int,
                     static_cast<std::uint32_t>(u & 0xffffffffu),
                     static_cast<std::uint32_t>(u >> 32)));
}

TermRef
TermArena::makeFloat(FloatId id)
{
    return push(Node(TermKind::Float, id, 0));
}

TermRef
TermArena::makeVar(VarId var, SymbolId name)
{
    varCeiling_ = std::max(varCeiling_, var + 1);
    return push(Node(TermKind::Var, var, name));
}

TermRef
TermArena::makeStruct(SymbolId functor, std::span<const TermRef> args)
{
    clare_assert(!args.empty(), "a structure must have at least one arg");
    std::uint32_t begin = static_cast<std::uint32_t>(args_.size());
    args_.append(mem_, args.data(), args.size());
    return push(Node(TermKind::Struct, functor, begin,
                     static_cast<std::uint32_t>(args.size())));
}

TermRef
TermArena::makeList(std::span<const TermRef> elems, TermRef tail)
{
    clare_assert(!elems.empty(),
                 "an empty list is the atom '[]', not a List node");
    // The parser only produces variable tails; the unifier may build
    // residual lists whose tail is an arbitrary term (improper lists
    // are tolerated at runtime, as in standard Prolog).
    std::uint32_t begin = static_cast<std::uint32_t>(args_.size());
    args_.append(mem_, elems.data(), elems.size());
    return push(Node(TermKind::List, tail, begin,
                     static_cast<std::uint32_t>(elems.size())));
}

TermKind
TermArena::kind(TermRef t) const
{
    return node(t).kind();
}

SymbolId
TermArena::atomSymbol(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Atom, "not an atom");
    return n.a;
}

std::int64_t
TermArena::intValue(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Int, "not an int");
    std::uint64_t u = (static_cast<std::uint64_t>(n.b) << 32) | n.a;
    return static_cast<std::int64_t>(u);
}

FloatId
TermArena::floatId(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Float, "not a float");
    return n.a;
}

VarId
TermArena::varId(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Var, "not a var");
    return n.a;
}

SymbolId
TermArena::varName(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Var, "not a var");
    return n.b;
}

bool
TermArena::isAnonymous(TermRef t) const
{
    return varName(t) == kNoSymbol;
}

SymbolId
TermArena::functor(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Struct, "not a struct");
    return n.a;
}

std::uint32_t
TermArena::arity(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Struct || n.kind() == TermKind::List,
                 "arity of a non-complex term");
    return n.argsCount();
}

TermRef
TermArena::arg(TermRef t, std::uint32_t i) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::Struct || n.kind() == TermKind::List,
                 "arg of a non-complex term");
    clare_assert(i < n.argsCount(), "arg index %u out of range (%u)",
                 i, n.argsCount());
    return args_[n.b + i];
}

TermRef
TermArena::listTail(TermRef t) const
{
    const Node &n = node(t);
    clare_assert(n.kind() == TermKind::List, "not a list");
    return n.a;
}

bool
TermArena::isTerminatedList(TermRef t) const
{
    return listTail(t) == kNoTerm;
}

template <typename MakeVar>
TermRef
TermArena::importWith(const TermArena &src, TermRef t,
                      const MakeVar &make_var)
{
    const Node &n = src.node(t);
    switch (n.kind()) {
      case TermKind::Atom:
        return makeAtom(n.a);
      case TermKind::Int:
        return push(Node(TermKind::Int, n.a, n.b));
      case TermKind::Float:
        return makeFloat(n.a);
      case TermKind::Var:
        return make_var(n.a, n.b);
      case TermKind::Struct:
      case TermKind::List: {
        // Children are imported first (they append to args_ too), so
        // their refs are gathered aside; small arities stay on the
        // stack, keeping the per-candidate import on the serving path
        // free of heap traffic.
        constexpr std::uint32_t kInline = 8;
        TermRef inline_refs[kInline];
        std::vector<TermRef> spilled;
        TermRef *refs = inline_refs;
        if (n.argsCount() > kInline) {
            spilled.resize(n.argsCount());
            refs = spilled.data();
        }
        for (std::uint32_t i = 0; i < n.argsCount(); ++i)
            refs[i] = importWith(src, src.args_[n.b + i], make_var);
        std::span<const TermRef> children(refs, n.argsCount());
        if (n.kind() == TermKind::Struct)
            return makeStruct(n.a, children);
        TermRef tail = n.a == kNoTerm
            ? kNoTerm : importWith(src, n.a, make_var);
        return makeList(children, tail);
      }
    }
    clare_panic("unreachable term kind");
}

TermRef
TermArena::import(const TermArena &src, TermRef t, VarId var_offset)
{
    return importWith(src, t, [this, var_offset](VarId v, SymbolId name) {
        return makeVar(v + var_offset, name);
    });
}

TermRef
TermArena::import(const TermArena &src, TermRef t,
                  std::span<const Rename> vars)
{
    return importWith(src, t, [this, vars](VarId v, SymbolId) {
        const auto it = std::find_if(
            vars.begin(), vars.end(),
            [v](const Rename &r) { return r.from == v; });
        clare_assert(it != vars.end(), "variable %u is not renamed", v);
        return makeVar(static_cast<VarId>(it - vars.begin()), it->name);
    });
}

bool
TermArena::equal(const TermArena &a, TermRef ta,
                 const TermArena &b, TermRef tb)
{
    const Node &na = a.node(ta);
    const Node &nb = b.node(tb);
    if (na.kind() != nb.kind())
        return false;
    switch (na.kind()) {
      case TermKind::Atom:
      case TermKind::Float:
        return na.a == nb.a;
      case TermKind::Int:
        return na.a == nb.a && na.b == nb.b;
      case TermKind::Var:
        return na.a == nb.a;
      case TermKind::Struct:
        if (na.a != nb.a || na.argsCount() != nb.argsCount())
            return false;
        for (std::uint32_t i = 0; i < na.argsCount(); ++i)
            if (!equal(a, a.args_[na.b + i],
                       b, b.args_[nb.b + i]))
                return false;
        return true;
      case TermKind::List:
        if (na.argsCount() != nb.argsCount())
            return false;
        if ((na.a == kNoTerm) != (nb.a == kNoTerm))
            return false;
        for (std::uint32_t i = 0; i < na.argsCount(); ++i)
            if (!equal(a, a.args_[na.b + i],
                       b, b.args_[nb.b + i]))
                return false;
        if (na.a != kNoTerm && !equal(a, na.a, b, nb.a))
            return false;
        return true;
    }
    clare_panic("unreachable term kind");
}

} // namespace clare::term
