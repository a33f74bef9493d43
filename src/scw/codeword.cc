#include "scw/codeword.hh"

#include "support/logging.hh"

namespace clare::scw {

using term::TermArena;
using term::TermKind;
using term::TermRef;

namespace {

/** splitmix64 finalizer used as the token hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Distinct token spaces for the different term constituents. */
enum class TokenKind : std::uint64_t
{
    Atom = 1,
    Int = 2,
    Float = 3,
    Functor = 4,
    ListMark = 5,
};

std::uint64_t
token(TokenKind kind, std::uint64_t value)
{
    // Mix the raw value before folding the kind tag in.  XORing the
    // tag into the top byte of the *raw* value let any value with high
    // bits set (a large integer, say) alias a token of another kind —
    // e.g. Int 7<<56 collided with the ListMark token — inflating
    // false drops.  After mixing, a cross-kind collision requires a
    // full 64-bit hash collision instead of eight crafted bits.
    // Changing this function changes every stored signature, so it is
    // coupled to kIndexFormatVersion.
    return mix(mix(value) ^ (static_cast<std::uint64_t>(kind) << 56) ^
               static_cast<std::uint64_t>(kind));
}

bool
containsVariable(const TermArena &arena, TermRef t)
{
    switch (arena.kind(t)) {
      case TermKind::Var:
        return true;
      case TermKind::Struct:
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (containsVariable(arena, arena.arg(t, i)))
                return true;
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != term::kNoTerm) {
            return true;    // unterminated list: the tail is a var
        }
        return false;
      default:
        return false;
    }
}

} // namespace

CodewordGenerator::CodewordGenerator(ScwConfig config)
    : config_(config)
{
    clare_assert(config_.fieldBits >= 2, "fieldBits must be >= 2");
    clare_assert(config_.bitsPerTerm >= 1, "bitsPerTerm must be >= 1");
    clare_assert(config_.encodedArgs >= 1 && config_.encodedArgs <= 32,
                 "encodedArgs must be in 1..32");
}

void
CodewordGenerator::hashToken(std::uint64_t tok, BitVec &field) const
{
    for (std::uint32_t j = 0; j < config_.bitsPerTerm; ++j) {
        std::uint64_t h = mix(tok ^ mix(config_.seed + j));
        field.set(h % config_.fieldBits);
    }
}

void
CodewordGenerator::encodeTermInto(const TermArena &arena, TermRef t,
                                  BitVec &field) const
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
        hashToken(token(TokenKind::Atom, arena.atomSymbol(t)), field);
        return;
      case TermKind::Int:
        hashToken(token(TokenKind::Int,
                        static_cast<std::uint64_t>(arena.intValue(t))),
                  field);
        return;
      case TermKind::Float:
        hashToken(token(TokenKind::Float, arena.floatId(t)), field);
        return;
      case TermKind::Var:
        // Variables are invisible to the superimposed code.
        return;
      case TermKind::Struct: {
        std::uint64_t f = (static_cast<std::uint64_t>(arena.functor(t))
                           << 8) | arena.arity(t);
        hashToken(token(TokenKind::Functor, f), field);
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            encodeTermInto(arena, arena.arg(t, i), field);
        return;
      }
      case TermKind::List: {
        hashToken(token(TokenKind::ListMark, 0), field);
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            encodeTermInto(arena, arena.arg(t, i), field);
        return;
      }
    }
    clare_panic("unreachable term kind");
}

Signature
CodewordGenerator::encode(const TermArena &arena,
                          TermRef head_or_goal) const
{
    Signature sig;
    encodeInto(arena, head_or_goal, sig);
    return sig;
}

void
CodewordGenerator::encodeInto(const TermArena &arena,
                              TermRef head_or_goal, Signature &sig) const
{
    std::uint32_t arity = 0;
    if (arena.kind(head_or_goal) == TermKind::Struct)
        arity = arena.arity(head_or_goal);
    std::uint32_t n = std::min(arity, config_.encodedArgs);

    sig.fields.resize(config_.encodedArgs);
    for (BitVec &field : sig.fields)
        field.zero(config_.fieldBits);
    sig.maskBits = 0;

    for (std::uint32_t f = 0; f < n; ++f) {
        TermRef arg = arena.arg(head_or_goal, f);
        // An argument containing *any* variable sets the field's mask
        // bit: a clause-side variable can be instantiated to anything,
        // so the field must match everything or the index would
        // falsely dismiss unifiable clauses.  (For whole-argument
        // variables nothing is encoded at all; for var-bearing
        // structures the ground parts are still superimposed, which
        // keeps the query side selective when possible.)
        if (containsVariable(arena, arg))
            sig.maskBits |= (1u << f);
        if (arena.kind(arg) != TermKind::Var)
            encodeTermInto(arena, arg, sig.fields[f]);
    }
    // Arguments beyond the hardware limit are simply not encoded
    // (truncation): their fields stay empty and unmasked, which makes
    // them unconstraining on the query side and unconstrained on the
    // clause side.
}

bool
CodewordGenerator::matches(const Signature &query,
                           const Signature &clause) const
{
    clare_assert(query.fields.size() == clause.fields.size(),
                 "signature layout mismatch");
    for (std::uint32_t f = 0; f < query.fields.size(); ++f) {
        // A masked clause field (the clause argument contains a
        // variable) matches anything.  A query field needs no mask
        // check: a fully-variable query argument encodes no bits and
        // the empty code is a subset of every clause code, while the
        // ground tokens of a partially-ground query argument genuinely
        // must appear in an unmasked clause field.
        if (clause.masked(f))
            continue;
        if (!query.fields[f].subsetOf(clause.fields[f]))
            return false;
    }
    return true;
}

std::size_t
CodewordGenerator::signatureBytes() const
{
    return config_.encodedArgs * BitVec::serializedBytes(config_.fieldBits)
        + 4;
}

void
CodewordGenerator::serialize(const Signature &sig,
                             std::vector<std::uint8_t> &out) const
{
    clare_assert(sig.fields.size() == config_.encodedArgs,
                 "serializing a signature of the wrong layout");
    for (const auto &field : sig.fields)
        field.serialize(out);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(sig.maskBits >> (8 * i)));
}

Signature
CodewordGenerator::deserialize(const std::vector<std::uint8_t> &in,
                               std::size_t &offset) const
{
    Signature sig;
    deserializeInto(in, offset, sig);
    return sig;
}

void
CodewordGenerator::deserializeInto(std::span<const std::uint8_t> in,
                                   std::size_t &offset,
                                   Signature &sig) const
{
    sig.fields.resize(config_.encodedArgs);
    for (std::uint32_t f = 0; f < config_.encodedArgs; ++f)
        sig.fields[f].deserializeInto(in, offset, config_.fieldBits);
    clare_assert(offset + 4 <= in.size(), "signature mask truncated");
    sig.maskBits = 0;
    for (int i = 0; i < 4; ++i)
        sig.maskBits |= static_cast<std::uint32_t>(in[offset++]) << (8 * i);
}

} // namespace clare::scw
