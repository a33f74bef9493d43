#include "pif/pif_item.hh"

#include "support/logging.hh"

namespace clare::pif {

std::int64_t
PifItem::integerValue() const
{
    clare_assert(tagClass(tag) == TagClass::Integer,
                 "integerValue of non-integer item");
    std::uint64_t u = (static_cast<std::uint64_t>(tagIntNibble(tag)) << 32)
        | content;
    // Sign-extend from 36 bits.
    if (u & (std::uint64_t{1} << 35))
        u |= ~((std::uint64_t{1} << 36) - 1);
    return static_cast<std::int64_t>(u);
}

bool
PifItem::integerFits(std::int64_t value)
{
    return value >= -(std::int64_t{1} << 35) &&
           value < (std::int64_t{1} << 35);
}

PifItem
PifItem::makeInteger(std::int64_t value)
{
    clare_assert(integerFits(value),
                 "integer %lld does not fit the 36-bit in-line encoding",
                 static_cast<long long>(value));
    std::uint64_t u = static_cast<std::uint64_t>(value) &
        ((std::uint64_t{1} << 36) - 1);
    PifItem item;
    item.tag = makeIntegerTag(static_cast<std::uint32_t>(u >> 32));
    item.content = static_cast<std::uint32_t>(u & 0xffffffffu);
    return item;
}

std::string
PifItem::toString() const
{
    std::string s = tagClassName(tagClass(tag));
    s += "(";
    if (tagClass(tag) == TagClass::Integer) {
        s += std::to_string(integerValue());
    } else {
        s += std::to_string(content);
        if (isComplexTag(tag)) {
            s += "/";
            s += std::to_string(tagArity(tag));
        }
    }
    if (hasExtension()) {
        s += ",ext=";
        s += std::to_string(extension);
    }
    s += ")";
    return s;
}

void
serializeItem(const PifItem &item, std::vector<std::uint8_t> &out)
{
    clare_assert(isValidTag(item.tag), "serializing invalid tag 0x%02x",
                 item.tag);
    out.push_back(item.tag);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(item.content >> (8 * i)));
    if (item.hasExtension()) {
        for (int i = 0; i < 4; ++i)
            out.push_back(
                static_cast<std::uint8_t>(item.extension >> (8 * i)));
    }
}

PifItem
deserializeItem(const std::vector<std::uint8_t> &in, std::size_t &offset)
{
    if (offset >= in.size())
        clare_fatal("PIF stream truncated at offset %zu", offset);
    PifItem item;
    item.tag = in[offset];
    if (!isValidTag(item.tag))
        clare_fatal("invalid PIF tag 0x%02x at offset %zu",
                    item.tag, offset);
    if (offset + item.wireBytes() > in.size())
        clare_fatal("PIF item truncated at offset %zu", offset);
    ++offset;
    for (int i = 0; i < 4; ++i)
        item.content |= static_cast<std::uint32_t>(in[offset++]) << (8 * i);
    if (item.hasExtension()) {
        for (int i = 0; i < 4; ++i)
            item.extension |=
                static_cast<std::uint32_t>(in[offset++]) << (8 * i);
    }
    return item;
}

std::size_t
wireSize(const std::vector<PifItem> &items)
{
    std::size_t n = 0;
    for (const auto &item : items)
        n += item.wireBytes();
    return n;
}

} // namespace clare::pif
