/**
 * @file
 * Transposed (bit-sliced) layout of a secondary file — the software
 * analogue of widening the FS1 match plane.
 *
 * The row-major SecondaryFile stores one signature per entry; deciding
 * an entry means decoding all of its fields.  This index stores the
 * *transpose*: for every field f and every code-bit position b, one
 * bitmap over entries whose bit (f, b) is set, plus one mask-bit
 * bitmap per field.  The SCW+MB rule for a query then needs only the
 * planes whose query bit is actually set —
 *
 *     survivors &= (AND over b in Q_f of plane[f][b])  |  mask[f]
 *
 * — evaluated 64 entries per 64-bit word operation, and one pass over
 * the planes can answer many queries at once (multi-query batch
 * scanning).  The plane is persisted as index format v3: the framed
 * .idx payload carries the entry records followed by a "CLSX" section
 * holding the plane words under their own CRC.
 *
 * Entry addresses (clause offset + ordinal) are kept as flat arrays so
 * survivor extraction never touches the row-major image.
 */

#ifndef CLARE_SCW_BIT_SLICED_INDEX_HH
#define CLARE_SCW_BIT_SLICED_INDEX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scw/index_file.hh"

namespace clare::scw {

/** The transposed plane of one predicate's secondary file. */
class BitSlicedIndex
{
  public:
    BitSlicedIndex() = default;

    /**
     * An all-zero plane of @p entries entries in @p generator's
     * dimensions, filled by setEntry().
     */
    BitSlicedIndex(const CodewordGenerator &generator,
                   std::size_t entries);

    /**
     * Transpose @p signature into entry @p i's bits (which must still
     * be zero) and record the entry's clause address.  The one
     * transposition routine: a build from clauses calls it as each
     * signature is encoded, extended() for entries decoded from an
     * image.
     */
    void setEntry(std::size_t i, const Signature &signature,
                  std::uint32_t clause_offset, std::uint32_t ordinal);

    /** Transpose a secondary file (one-time cost per predicate). */
    static BitSlicedIndex build(const CodewordGenerator &generator,
                                const SecondaryFile &index);

    /**
     * This plane extended to the end of @p index, where plane entry 0
     * is index entry @p first: the existing rows are copied into the
     * wider plane and only the entries past entryCount() are decoded
     * and transposed.  The live write path grows its delta plane this
     * way; the result equals build() over the same entries.
     */
    BitSlicedIndex extended(const CodewordGenerator &generator,
                            const SecondaryFile &index,
                            std::size_t first) const;

    /** Heap bytes held (plane rows plus entry addresses). */
    std::size_t memoryBytes() const
    {
        return bits_.capacity() * sizeof(std::uint64_t) +
            (clauseOffsets_.capacity() + ordinals_.capacity()) *
                sizeof(std::uint32_t);
    }

    std::size_t entryCount() const { return count_; }
    std::uint32_t fields() const { return fields_; }
    std::uint32_t fieldBits() const { return fieldBits_; }
    /** 64-bit words per plane row (= ceil(entryCount / 64)). */
    std::size_t planeWords() const { return words_; }

    /** Row of entry-bitmap words for code bit @p bit of @p field. */
    const std::uint64_t *codePlane(std::uint32_t field,
                                   std::uint32_t bit) const
    {
        return bits_.data() +
            (static_cast<std::size_t>(field) * fieldBits_ + bit) *
                words_;
    }

    /** Row of mask-bit words for @p field. */
    const std::uint64_t *maskPlane(std::uint32_t field) const
    {
        return bits_.data() +
            (static_cast<std::size_t>(fields_) * fieldBits_ + field) *
                words_;
    }

    std::uint32_t clauseOffset(std::size_t entry) const
    {
        return clauseOffsets_[entry];
    }

    std::uint32_t ordinal(std::size_t entry) const
    {
        return ordinals_[entry];
    }

    /**
     * Append the persisted plane section ("CLSX" magic, dimensions,
     * plane words, section CRC) to @p out.  Entry addresses are not
     * serialized — they are re-derived from the entry records on load.
     */
    void serialize(std::vector<std::uint8_t> &out) const;

    /** Bytes serialize() appends for these dimensions. */
    std::size_t serializedBytes() const;

    /**
     * Parse a CLSX section at @p offset of @p in (advanced past it).
     * The dimensions must agree with @p generator and @p index — a
     * plane that disagrees with the entries it was transposed from
     * would silently return wrong survivors.
     *
     * @throws CorruptionError naming @p origin on a bad magic,
     *         dimension mismatch, truncation, or section-CRC failure
     */
    static BitSlicedIndex deserialize(const std::vector<std::uint8_t> &in,
                                      std::size_t &offset,
                                      const CodewordGenerator &generator,
                                      const SecondaryFile &index,
                                      const std::string &origin);

    /** Plane-for-plane equality (tests: round-trip fidelity). */
    bool operator==(const BitSlicedIndex &other) const;

  private:
    std::uint32_t fields_ = 0;
    std::uint32_t fieldBits_ = 0;
    std::size_t count_ = 0;
    std::size_t words_ = 0;
    /**
     * All rows contiguously: fields_ * fieldBits_ code-plane rows
     * (field-major), then fields_ mask-plane rows, each words_ long.
     * Bits at positions >= count_ are zero in every row.
     */
    std::vector<std::uint64_t> bits_;
    std::vector<std::uint32_t> clauseOffsets_;
    std::vector<std::uint32_t> ordinals_;

    /** Re-derive the address arrays from the entry records. */
    void loadAddresses(const SecondaryFile &index);
};

} // namespace clare::scw

#endif // CLARE_SCW_BIT_SLICED_INDEX_HH
