#include "scw/index_file.hh"

#include <algorithm>

#include "support/logging.hh"

namespace clare::scw {

SecondaryFile
SecondaryFile::build(const CodewordGenerator &generator,
                     const std::vector<Signature> &signatures,
                     const storage::ClauseFile &clauses)
{
    clare_assert(signatures.size() == clauses.clauseCount(),
                 "signature count %zu != clause count %zu",
                 signatures.size(), clauses.clauseCount());
    const std::size_t entry_bytes = generator.signatureBytes() + 8;
    std::vector<std::uint8_t> image;
    image.reserve(entry_bytes * signatures.size());
    for (std::size_t i = 0; i < signatures.size(); ++i)
        appendEntry(generator, signatures[i], clauses.record(i), image);
    return fromImage(std::move(image), signatures.size(), entry_bytes);
}

void
SecondaryFile::appendEntry(const CodewordGenerator &generator,
                           const Signature &signature,
                           const storage::ClauseRecord &clause,
                           std::vector<std::uint8_t> &out)
{
    generator.serialize(signature, out);
    for (int b = 0; b < 4; ++b)
        out.push_back(static_cast<std::uint8_t>(clause.offset >> (8 * b)));
    for (int b = 0; b < 4; ++b)
        out.push_back(static_cast<std::uint8_t>(clause.ordinal >> (8 * b)));
}

SecondaryFile
SecondaryFile::fromImage(std::vector<std::uint8_t> image,
                         std::size_t entry_count,
                         std::size_t entry_bytes)
{
    clare_assert(image.size() == entry_count * entry_bytes,
                 "index image of %zu bytes does not hold %zu entries "
                 "of %zu bytes", image.size(), entry_count, entry_bytes);
    SecondaryFile file;
    file.image_ = support::SharedPrefix<std::uint8_t>(std::move(image));
    file.count_ = entry_count;
    file.entryBytes_ = entry_bytes;
    return file;
}

SecondaryFile
SecondaryFile::append(std::span<const std::uint8_t> entries) const
{
    clare_assert(entryBytes_ != 0 && entries.size() % entryBytes_ == 0,
                 "%zu bytes are not whole index entries of %zu bytes",
                 entries.size(), entryBytes_);
    SecondaryFile file;
    file.image_ = image_.append(entries);
    file.count_ = count_ + entries.size() / entryBytes_;
    file.entryBytes_ = entryBytes_;
    return file;
}

std::vector<EntryRange>
SecondaryFile::shardRanges(std::size_t shards) const
{
    std::vector<EntryRange> ranges;
    if (count_ == 0 || shards == 0)
        return ranges;
    shards = std::min(shards, count_);
    ranges.reserve(shards);
    std::size_t base = count_ / shards;
    std::size_t extra = count_ % shards;    // first `extra` shards get +1
    std::size_t at = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        std::size_t len = base + (s < extra ? 1 : 0);
        ranges.push_back(EntryRange{at, at + len});
        at += len;
    }
    return ranges;
}

IndexEntry
SecondaryFile::entry(const CodewordGenerator &generator,
                     std::size_t i) const
{
    IndexEntry e;
    entryInto(generator, i, e);
    return e;
}

void
SecondaryFile::entryInto(const CodewordGenerator &generator,
                         std::size_t i, IndexEntry &scratch) const
{
    clare_assert(i < count_, "index entry %zu out of range", i);
    const std::span<const std::uint8_t> image = image_.view();
    std::size_t at = i * entryBytes_;
    generator.deserializeInto(image, at, scratch.signature);
    scratch.clauseOffset = 0;
    scratch.ordinal = 0;
    for (int b = 0; b < 4; ++b)
        scratch.clauseOffset |=
            static_cast<std::uint32_t>(image[at + b]) << (8 * b);
    at += 4;
    for (int b = 0; b < 4; ++b)
        scratch.ordinal |=
            static_cast<std::uint32_t>(image[at + b]) << (8 * b);
}

} // namespace clare::scw
