#include "storage/clause_file.hh"

#include <algorithm>
#include <cstdio>

#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::storage {

namespace {

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t
getU16(std::span<const std::uint8_t> in, std::size_t at)
{
    return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

std::uint32_t
getU32(std::span<const std::uint8_t> in, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
    return v;
}

} // namespace

const ClauseRecord &
ClauseFile::record(std::size_t i) const
{
    clare_assert(i < records_.size(), "clause index %zu out of range", i);
    return records_[i];
}

ClauseRecord
ClauseFile::parseHeader(std::span<const std::uint8_t> image,
                        std::size_t offset)
{
    if (offset + kRecordHeaderBytes > image.size())
        clare_fatal("clause record header truncated at offset %zu",
                    offset);
    ClauseRecord rec;
    rec.offset = static_cast<std::uint32_t>(offset);
    rec.ordinal = getU32(image, offset);
    rec.functor = getU32(image, offset + 4);
    rec.arity = image[offset + 8];
    rec.flags = image[offset + 9];
    rec.itemCount = getU16(image, offset + 10);
    std::uint32_t item_bytes = getU32(image, offset + 12);
    std::uint32_t source_bytes = getU32(image, offset + 16);
    rec.length = static_cast<std::uint32_t>(kRecordHeaderBytes) +
        item_bytes + source_bytes;
    if (offset + rec.length > image.size())
        clare_fatal("clause record body truncated at offset %zu", offset);
    return rec;
}

void
ClauseFile::decodeArgsInto(const ClauseRecord &rec,
                           pif::EncodedArgs &out) const
{
    // This is the boundary between stored bytes and the engine: a
    // clause-file v1 image has no page checksums, so a flipped byte
    // arrives here undetected.  Every structural property the engine
    // relies on is validated with a typed CorruptionError — the
    // engine's own guards are clare_assert backstops, not error
    // reporting.  The full scans call this once per stored record
    // into one scratch EncodedArgs, so the clean path only refills
    // retained vectors; building messages is left to the throws.
    auto fail = [](std::size_t at, const std::string &why) {
        throw CorruptionError(
            "clause image", at / support::kChecksumPageBytes, at, why);
    };
    auto hex_tag = [](pif::Tag tag) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "0x%02x",
                      static_cast<unsigned>(tag));
        return std::string(buf);
    };
    const std::span<const std::uint8_t> image = image_.view();
    const std::size_t items_at = rec.offset + kRecordHeaderBytes;
    const std::size_t rec_end = std::min<std::size_t>(
        static_cast<std::size_t>(rec.offset) + rec.length, image.size());
    // Byte offset of a decoded item, for the error messages of the
    // passes that run after the stream has been read.
    auto item_offset = [&out, items_at](std::size_t item) {
        std::size_t at = items_at;
        for (std::size_t i = 0; i < item; ++i)
            at += out.items[i].wireBytes();
        return at;
    };

    out.items.clear();
    out.argIndex.clear();
    // One pass reads the items and rebuilds the argument index and the
    // variable-slot count.  A bad slot or an in-line header with too
    // few elements is only noted here: a truncated or malformed stream
    // later in the record is reported first, then the slot, then the
    // header.
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t bad_slot = kNone;
    std::size_t bad_width = kNone;
    std::size_t next_arg = 0;
    std::uint32_t max_slot = 0;
    bool any_var = false;
    std::size_t at = items_at;
    for (std::uint16_t i = 0; i < rec.itemCount; ++i) {
        if (at >= rec_end)
            fail(at, "PIF stream truncated after " +
                     std::to_string(i) + " of " +
                     std::to_string(rec.itemCount) + " items");
        pif::PifItem item;
        item.tag = image[at];
        if (!pif::isValidTag(item.tag))
            fail(at, "invalid PIF tag " + hex_tag(item.tag));
        if (pif::isQueryVarItem(item))
            fail(at, "query-variable tag " + hex_tag(item.tag) +
                     " in a database stream");
        const bool ext = pif::tagHasExtension(item.tag);
        if (at + (ext ? 9u : 5u) > rec_end)
            fail(at, "PIF item overruns the record body");
        item.content = getU32(image, at + 1);
        if (ext)
            item.extension = getU32(image, at + 5);
        at += ext ? 9u : 5u;
        out.items.push_back(item);

        if (pif::isDbVarItem(item)) {
            // Slots are assigned densely from zero, one per distinct
            // variable, so a slot at or past the item count can only
            // come from a corrupted content word — and would size the
            // TUE binding memory arbitrarily.
            if (item.content >= rec.itemCount && bad_slot == kNone)
                bad_slot = i;
            any_var = true;
            max_slot = std::max(max_slot, item.content);
        }
        if (i == next_arg) {
            out.argIndex.push_back(i);
            std::size_t width = 1;
            if (pif::isInlineComplexTag(item.tag)) {
                width = 1 + pif::tagArity(item.tag);
                if (i + width > rec.itemCount && bad_width == kNone)
                    bad_width = i;
            }
            next_arg += width;
        }
    }
    out.varSlots = any_var ? max_slot + 1 : 0;

    if (bad_slot != kNone)
        fail(item_offset(bad_slot),
             "variable slot " +
                 std::to_string(out.items[bad_slot].content) +
                 " out of range for a record of " +
                 std::to_string(rec.itemCount) + " items");
    if (bad_width != kNone)
        fail(item_offset(bad_width),
             "in-line complex item needs " +
                 std::to_string(pif::tagArity(out.items[bad_width].tag)) +
                 " elements but only " +
                 std::to_string(rec.itemCount - bad_width - 1) +
                 " items follow");
    if (out.argIndex.size() != rec.arity)
        fail(rec.offset, "decoded " +
                         std::to_string(out.argIndex.size()) +
                         " arguments but record arity is " +
                         std::to_string(rec.arity));
}

pif::EncodedArgs
ClauseFile::decodeArgs(std::size_t i) const
{
    pif::EncodedArgs args;
    decodeArgsInto(record(i), args);
    return args;
}

std::string
ClauseFile::sourceText(std::size_t i) const
{
    const ClauseRecord &rec = record(i);
    const std::span<const std::uint8_t> image = image_.view();
    std::uint32_t item_bytes = getU32(image, rec.offset + 12);
    std::uint32_t source_bytes = getU32(image, rec.offset + 16);
    std::size_t at = rec.offset + kRecordHeaderBytes + item_bytes;
    return std::string(image.begin() + static_cast<std::ptrdiff_t>(at),
                       image.begin() +
                       static_cast<std::ptrdiff_t>(at + source_bytes));
}

ClauseRecord
ClauseFileBuilder::add(const term::ClauseView &clause)
{
    term::PredicateId pred = clause.predicate();
    if (!havePredicate_) {
        predicate_ = pred;
        havePredicate_ = true;
    } else if (!(pred == predicate_)) {
        clare_fatal("clause file mixes predicates (functor %u/%u vs "
                    "%u/%u)", pred.functor, pred.arity,
                    predicate_.functor, predicate_.arity);
    }
    if (pred.arity > 255)
        clare_fatal("predicate arity %u exceeds the record limit",
                    pred.arity);

    encoder_.encodeArgsInto(*clause.arena, clause.head, pif::Side::Db,
                            args_);
    if (args_.items.size() > 0xffff)
        clare_fatal("clause head compiles to %zu PIF items (limit 65535)",
                    args_.items.size());
    source_.clear();
    writer_.appendClause(clause, source_);

    ClauseRecord rec;
    rec.ordinal = firstOrdinal_ +
        static_cast<std::uint32_t>(records_.size());
    rec.offset = static_cast<std::uint32_t>(image_.size());
    rec.functor = pred.functor;
    rec.arity = static_cast<std::uint8_t>(pred.arity);
    rec.flags = static_cast<std::uint8_t>(
        (clause.isFact() ? 0x01 : 0x00) |
        (clause.isGroundFact() ? 0x02 : 0x00));
    rec.itemCount = static_cast<std::uint16_t>(args_.items.size());

    // The items are serialized in place; their byte count, which the
    // header carries ahead of them, is patched in after.
    putU32(image_, rec.ordinal);
    putU32(image_, rec.functor);
    image_.push_back(rec.arity);
    image_.push_back(rec.flags);
    putU16(image_, rec.itemCount);
    const std::size_t item_bytes_at = image_.size();
    putU32(image_, 0);
    putU32(image_, static_cast<std::uint32_t>(source_.size()));
    for (const pif::PifItem &item : args_.items)
        pif::serializeItem(item, image_);
    const auto item_bytes = static_cast<std::uint32_t>(
        image_.size() - rec.offset - kRecordHeaderBytes);
    for (int b = 0; b < 4; ++b)
        image_[item_bytes_at + b] =
            static_cast<std::uint8_t>(item_bytes >> (8 * b));
    image_.insert(image_.end(), source_.begin(), source_.end());
    rec.length = static_cast<std::uint32_t>(image_.size() - rec.offset);
    records_.push_back(rec);
    return rec;
}

ClauseFile
ClauseFileBuilder::finish()
{
    ClauseFile out;
    out.predicate_ = predicate_;
    // The image and directory grew by doubling; a finished file is
    // kept for as long as its versions live, so drop the slack.
    image_.shrink_to_fit();
    records_.shrink_to_fit();
    out.image_ = support::SharedPrefix<std::uint8_t>(std::move(image_));
    out.records_ =
        support::SharedPrefix<ClauseRecord>(std::move(records_));
    image_.clear();
    records_.clear();
    havePredicate_ = false;
    return out;
}

ClauseFile
ClauseFile::concat(const ClauseFile &base, const ClauseFile &tail)
{
    if (base.clauseCount() == 0)
        return tail;
    if (tail.clauseCount() == 0)
        return base;
    clare_assert(base.predicate_ == tail.predicate_,
                 "concatenating clause files of different predicates");
    clare_assert(tail.records_[0].ordinal == base.records_.size(),
                 "tail ordinals start at %u, base holds %zu clauses",
                 tail.records_[0].ordinal, base.records_.size());
    ClauseFile out;
    out.predicate_ = base.predicate_;
    out.image_ = base.image_.append(tail.image_.view());
    std::vector<ClauseRecord> shifted(tail.records_.view().begin(),
                                      tail.records_.view().end());
    std::uint32_t shift = static_cast<std::uint32_t>(base.image_.size());
    for (ClauseRecord &rec : shifted)
        rec.offset += shift;    // directory-only; not in the wire bytes
    out.records_ = base.records_.append(shifted);
    return out;
}

} // namespace clare::storage
