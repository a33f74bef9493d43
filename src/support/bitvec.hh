/**
 * @file
 * A fixed-width dynamic bit vector used for superimposed codewords.
 *
 * std::bitset needs a compile-time width, but codeword width is an
 * experiment parameter (the false-drop bench sweeps it), so codewords
 * are built on this small runtime-width vector instead.
 */

#ifndef CLARE_SUPPORT_BITVEC_HH
#define CLARE_SUPPORT_BITVEC_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace clare {

/** Runtime-width bit vector with the operations codeword matching needs. */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct an all-zero vector of the given width in bits. */
    explicit BitVec(std::size_t width);

    std::size_t width() const { return width_; }

    /**
     * Make this an all-zero vector of @p width bits, reusing the
     * backing words when the width already matches.
     */
    void zero(std::size_t width);

    void set(std::size_t bit);
    void clear(std::size_t bit);
    bool test(std::size_t bit) const;

    /** Number of set bits. */
    std::size_t popcount() const;

    /** True if no bit is set. */
    bool none() const;

    /** this |= other (widths must match). */
    BitVec &operator|=(const BitVec &other);

    /** this &= other (widths must match). */
    BitVec &operator&=(const BitVec &other);

    /**
     * Codeword inclusion test: every set bit of this is also set in
     * other.  This is the superimposed-codeword match condition
     * (query-code subset of clause-code).
     */
    bool subsetOf(const BitVec &other) const;

    /**
     * `(a & ~b) == 0`, word-wise with early exit — the FS1 match
     * plane's per-field AND condition.  Equivalent to a.subsetOf(b);
     * exposed by name so the matcher code reads like the hardware
     * equation.  Widths must match.
     */
    static bool andNotIsZero(const BitVec &a, const BitVec &b);

    /** Number of 64-bit words backing this vector. */
    std::size_t wordCount() const { return words_.size(); }

    /** Word @p i of the backing storage (bit b lives in word b/64). */
    std::uint64_t word(std::size_t i) const { return words_[i]; }

    bool operator==(const BitVec &other) const;

    /** Binary rendering, most significant word first (for debugging). */
    std::string toString() const;

    /** Serialize into a byte stream (little endian words). */
    void serialize(std::vector<std::uint8_t> &out) const;

    /** Deserialize width bits from a byte stream at offset; advances it. */
    static BitVec deserialize(const std::vector<std::uint8_t> &in,
                              std::size_t &offset, std::size_t width);

    /**
     * In-place deserialize: overwrite this vector with @p width bits
     * read at @p offset (advanced past them).  Reuses the backing
     * words when the width already matches, so a scan loop decoding
     * entries into a scratch vector performs no per-entry allocation.
     */
    void deserializeInto(std::span<const std::uint8_t> in,
                         std::size_t &offset, std::size_t width);

    /** Number of bytes the serialized form occupies for a given width. */
    static std::size_t serializedBytes(std::size_t width);

  private:
    std::size_t width_ = 0;
    std::vector<std::uint64_t> words_;

    void checkBit(std::size_t bit) const;
};

} // namespace clare

#endif // CLARE_SUPPORT_BITVEC_HH
