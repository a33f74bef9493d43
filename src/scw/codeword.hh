/**
 * @file
 * Superimposed codewords plus mask bits (SCW+MB) — the indexing scheme
 * scanned by the first stage filter (section 2.1).
 *
 * Each of the first `encodedArgs` (hardware limit: 12) arguments of a
 * clause head or query owns a field of `fieldBits` bits.  A ground
 * argument superimposes `bitsPerTerm` hashed bits per token (atom,
 * integer, float, functor) recursively over its content.  Variables
 * contribute no bits; an argument that *is* a variable sets the
 * field's mask bit, meaning "matches anything".
 *
 * The match rule for a query signature against a clause signature is,
 * per field: pass if the query's mask bit is set (unconstrained), or
 * the clause's mask bit is set (clause matches anything), or the
 * query's field code is a subset of the clause's.  Arguments beyond
 * `encodedArgs` are not represented at all.
 *
 * This reproduces the paper's three false-drop sources exactly:
 * non-unique encoding (hash collisions / superimposition), truncation
 * at 12 arguments, and shared variables (which are simply invisible to
 * the code — the married_couple(S,S) query matches every clause).
 */

#ifndef CLARE_SCW_CODEWORD_HH
#define CLARE_SCW_CODEWORD_HH

#include <cstdint>
#include <span>
#include <vector>

#include "support/bitvec.hh"
#include "term/term.hh"

namespace clare::scw {

/**
 * Version of the signature encoding (token hashing + wire layout).
 * Bumped whenever stored signatures change meaning so persisted
 * secondary files from older builds are rejected and regenerated
 * rather than silently misinterpreted.
 *
 *  1 — original scheme; token kinds XORed into the raw value's top
 *      byte (aliased across kinds for values with high bits set)
 *  2 — token values mixed before the kind tag is combined
 *  3 — same token hashing and entry wire layout as v2; the persisted
 *      .idx payload additionally carries the transposed (bit-sliced)
 *      plane section after the entry records
 */
constexpr int kIndexFormatVersion = 3;

/**
 * Oldest index format whose entries this build decodes identically.
 * v2 and v3 share the token hashing and entry layout — a v3 loader
 * reads a v2 store and simply rebuilds the sliced plane in memory.
 */
constexpr int kIndexFormatVersionCompat = 2;

/** Tunable parameters of the SCW+MB scheme. */
struct ScwConfig
{
    std::uint32_t fieldBits = 16;   ///< bits per argument field
    std::uint32_t bitsPerTerm = 2;  ///< hash bits set per token
    std::uint32_t encodedArgs = 12; ///< hardware encoding limit
    std::uint64_t seed = 0x5ca1ab1e5ca1ab1eULL;
};

/** A signature: per-argument field codes plus variable mask bits. */
struct Signature
{
    std::vector<BitVec> fields;
    std::uint32_t maskBits = 0;     ///< bit f set = argument f is a var

    bool masked(std::uint32_t field) const
    {
        return (maskBits >> field) & 1;
    }
};

/** Generates signatures and evaluates the SCW+MB match rule. */
class CodewordGenerator
{
  public:
    explicit CodewordGenerator(ScwConfig config = {});

    const ScwConfig &config() const { return config_; }

    /**
     * Encode the arguments of a clause head or query goal (an atom or
     * structure term).
     */
    Signature encode(const term::TermArena &arena,
                     term::TermRef head_or_goal) const;

    /**
     * encode() into @p sig, reusing its field vectors: a loop encoding
     * into one scratch signature allocates nothing once it is warm.
     */
    void encodeInto(const term::TermArena &arena,
                    term::TermRef head_or_goal, Signature &sig) const;

    /** SCW+MB match rule: could the clause satisfy the query? */
    bool matches(const Signature &query, const Signature &clause) const;

    /** Serialized size of one signature in bytes. */
    std::size_t signatureBytes() const;

    /** Append a signature's wire form to a byte buffer. */
    void serialize(const Signature &sig,
                   std::vector<std::uint8_t> &out) const;

    /** Decode a signature at @p offset, advancing it. */
    Signature deserialize(const std::vector<std::uint8_t> &in,
                          std::size_t &offset) const;

    /**
     * In-place decode into @p sig, reusing its field vectors so a
     * scan loop decoding entries into one scratch signature performs
     * no per-entry allocation.
     */
    void deserializeInto(std::span<const std::uint8_t> in,
                         std::size_t &offset, Signature &sig) const;

  private:
    ScwConfig config_;

    void hashToken(std::uint64_t token, BitVec &field) const;
    void encodeTermInto(const term::TermArena &arena, term::TermRef t,
                        BitVec &field) const;
};

} // namespace clare::scw

#endif // CLARE_SCW_CODEWORD_HH
