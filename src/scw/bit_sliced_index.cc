#include "scw/bit_sliced_index.hh"

#include <algorithm>
#include <bit>

#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::scw {

namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'L', 'S', 'X'};
constexpr std::uint32_t kSectionVersion = 1;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(std::span<const std::uint8_t> in, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    return v;
}

/** 4 magic + 4 version + 8 count + 4 fields + 4 fieldBits + 8 words. */
constexpr std::size_t kHeaderBytes = 32;

} // namespace

void
BitSlicedIndex::loadAddresses(const SecondaryFile &index)
{
    const std::span<const std::uint8_t> image = index.image();
    const std::size_t entry_bytes = index.entryBytes();
    clauseOffsets_.resize(count_);
    ordinals_.resize(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        // The addresses are the trailing 8 bytes of each record (u32
        // clause offset then u32 ordinal, little endian).
        std::size_t at = (i + 1) * entry_bytes - 8;
        clauseOffsets_[i] = getU32(image, at);
        ordinals_[i] = getU32(image, at + 4);
    }
}

BitSlicedIndex
BitSlicedIndex::build(const CodewordGenerator &generator,
                      const SecondaryFile &index)
{
    return BitSlicedIndex().extended(generator, index, 0);
}

BitSlicedIndex::BitSlicedIndex(const CodewordGenerator &generator,
                               std::size_t entries)
    : fields_(generator.config().encodedArgs),
      fieldBits_(generator.config().fieldBits), count_(entries),
      words_((entries + 63) / 64),
      bits_((static_cast<std::size_t>(fields_) * fieldBits_ + fields_) *
                words_,
            0),
      clauseOffsets_(entries), ordinals_(entries)
{
}

void
BitSlicedIndex::setEntry(std::size_t i, const Signature &signature,
                         std::uint32_t clause_offset, std::uint32_t ordinal)
{
    clauseOffsets_[i] = clause_offset;
    ordinals_[i] = ordinal;
    const std::uint64_t entry_bit = std::uint64_t{1} << (i % 64);
    std::uint64_t *column = bits_.data() + i / 64;
    for (std::uint32_t f = 0; f < fields_; ++f) {
        // Visit only the set bits of the field's code, a word at a
        // time; bits a decoded image holds past fieldBits are ignored.
        const BitVec &code = signature.fields[f];
        std::uint64_t *rows = column +
            static_cast<std::size_t>(f) * fieldBits_ * words_;
        for (std::size_t w = 0; w * 64 < fieldBits_; ++w) {
            std::uint64_t set = code.word(w);
            const std::size_t valid = fieldBits_ - w * 64;
            if (valid < 64)
                set &= (std::uint64_t{1} << valid) - 1;
            for (; set != 0; set &= set - 1) {
                const std::size_t b = w * 64 +
                    static_cast<std::size_t>(std::countr_zero(set));
                rows[b * words_] |= entry_bit;
            }
        }
        if (signature.masked(f))
            column[(static_cast<std::size_t>(fields_) * fieldBits_ + f) *
                   words_] |= entry_bit;
    }
}

BitSlicedIndex
BitSlicedIndex::extended(const CodewordGenerator &generator,
                         const SecondaryFile &index,
                         std::size_t first) const
{
    clare_assert(first + count_ <= index.entryCount(),
                 "plane of %zu entries from %zu overruns an index of %zu",
                 count_, first, index.entryCount());
    BitSlicedIndex plane(generator, index.entryCount() - first);
    clare_assert(count_ == 0 || (fields_ == plane.fields_ &&
                                 fieldBits_ == plane.fieldBits_),
                 "extending a %ux%u plane with %ux%u signatures",
                 fields_, fieldBits_, plane.fields_, plane.fieldBits_);
    if (count_ > 0) {
        const std::size_t rows =
            static_cast<std::size_t>(plane.fields_) * plane.fieldBits_ +
            plane.fields_;
        for (std::size_t r = 0; r < rows; ++r)
            std::copy_n(bits_.data() + r * words_, words_,
                        plane.bits_.data() + r * plane.words_);
        std::copy(clauseOffsets_.begin(), clauseOffsets_.end(),
                  plane.clauseOffsets_.begin());
        std::copy(ordinals_.begin(), ordinals_.end(),
                  plane.ordinals_.begin());
    }

    IndexEntry scratch;
    for (std::size_t i = count_; i < plane.count_; ++i) {
        index.entryInto(generator, first + i, scratch);
        plane.setEntry(i, scratch.signature, scratch.clauseOffset,
                       scratch.ordinal);
    }
    return plane;
}

std::size_t
BitSlicedIndex::serializedBytes() const
{
    return kHeaderBytes + bits_.size() * 8 + 4;
}

void
BitSlicedIndex::serialize(std::vector<std::uint8_t> &out) const
{
    const std::size_t start = out.size();
    out.insert(out.end(), kMagic, kMagic + 4);
    putU32(out, kSectionVersion);
    putU64(out, count_);
    putU32(out, fields_);
    putU32(out, fieldBits_);
    putU64(out, words_);
    for (std::uint64_t w : bits_)
        putU64(out, w);
    // The section CRC covers the header and every plane word.  The
    // page framing around the whole .idx payload catches random
    // flips; this one catches *logical* damage — e.g. a section
    // spliced from a different store — that arrives with valid pages.
    putU32(out, support::crc32(out.data() + start, out.size() - start));
}

BitSlicedIndex
BitSlicedIndex::deserialize(const std::vector<std::uint8_t> &in,
                            std::size_t &offset,
                            const CodewordGenerator &generator,
                            const SecondaryFile &index,
                            const std::string &origin)
{
    auto corrupt = [&](const std::string &why) -> CorruptionError {
        return CorruptionError(origin, kNoFilePosition, kNoFilePosition,
                               "sliced plane section: " + why);
    };
    const std::size_t start = offset;
    if (in.size() - offset < kHeaderBytes)
        throw corrupt("truncated header (" +
                      std::to_string(in.size() - offset) + " bytes)");
    for (int i = 0; i < 4; ++i)
        if (in[offset + i] != kMagic[i])
            throw corrupt("bad magic");
    std::uint32_t version = getU32(in, offset + 4);
    if (version != kSectionVersion)
        throw corrupt("unsupported section version " +
                      std::to_string(version));

    BitSlicedIndex plane;
    plane.count_ = static_cast<std::size_t>(getU64(in, offset + 8));
    plane.fields_ = getU32(in, offset + 16);
    plane.fieldBits_ = getU32(in, offset + 20);
    plane.words_ = static_cast<std::size_t>(getU64(in, offset + 24));

    if (plane.count_ != index.entryCount())
        throw corrupt("holds " + std::to_string(plane.count_) +
                      " entries, secondary file holds " +
                      std::to_string(index.entryCount()));
    if (plane.fields_ != generator.config().encodedArgs ||
        plane.fieldBits_ != generator.config().fieldBits)
        throw corrupt("plane dimensions " +
                      std::to_string(plane.fields_) + "x" +
                      std::to_string(plane.fieldBits_) +
                      " disagree with the scw configuration");
    if (plane.words_ != (plane.count_ + 63) / 64)
        throw corrupt("word count " + std::to_string(plane.words_) +
                      " disagrees with the entry count");

    const std::size_t rows =
        static_cast<std::size_t>(plane.fields_) * plane.fieldBits_ +
        plane.fields_;
    const std::size_t body = kHeaderBytes + rows * plane.words_ * 8;
    if (in.size() - start < body + 4)
        throw corrupt("truncated plane words");
    std::uint32_t stored_crc = getU32(in, start + body);
    std::uint32_t got_crc = support::crc32(in.data() + start, body);
    if (stored_crc != got_crc)
        throw corrupt("checksum mismatch (stored " +
                      std::to_string(stored_crc) + ", computed " +
                      std::to_string(got_crc) + ")");

    plane.bits_.resize(rows * plane.words_);
    for (std::size_t w = 0; w < plane.bits_.size(); ++w)
        plane.bits_[w] = getU64(in, start + kHeaderBytes + w * 8);
    plane.loadAddresses(index);
    offset = start + body + 4;
    return plane;
}

bool
BitSlicedIndex::operator==(const BitSlicedIndex &other) const
{
    return fields_ == other.fields_ && fieldBits_ == other.fieldBits_ &&
        count_ == other.count_ && words_ == other.words_ &&
        bits_ == other.bits_ &&
        clauseOffsets_ == other.clauseOffsets_ &&
        ordinals_ == other.ordinals_;
}

} // namespace clare::scw
