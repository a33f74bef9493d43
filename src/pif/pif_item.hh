/**
 * @file
 * A single Pseudo In-line Format item and its wire encoding.
 *
 * An item is an 8-bit type tag, a 32-bit content field, and (for
 * structure pointers) a 32-bit extension.  The wire format is the tag
 * byte followed by the little-endian content word and, when the tag
 * calls for it, the little-endian extension word.
 */

#ifndef CLARE_PIF_PIF_ITEM_HH
#define CLARE_PIF_PIF_ITEM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pif/type_tags.hh"

namespace clare::pif {

/** One PIF item as streamed to/compared by the FS2 hardware. */
struct PifItem
{
    Tag tag = 0;
    std::uint32_t content = 0;
    std::uint32_t extension = 0;

    bool hasExtension() const { return tagHasExtension(tag); }

    /** Size in bytes on the wire (5 or 9). */
    std::size_t wireBytes() const { return hasExtension() ? 9 : 5; }

    /** Decode the 36-bit in-line integer value (tag must be Integer). */
    std::int64_t integerValue() const;

    /** Build an in-line integer item; value must fit in 36 bits. */
    static PifItem makeInteger(std::int64_t value);

    /** Range check for the 36-bit in-line integer encoding. */
    static bool integerFits(std::int64_t value);

    bool operator==(const PifItem &) const = default;

    /** Debug rendering: "tag-class(content[,ext])". */
    std::string toString() const;
};

/** True for a First/Subsequent query-variable item. */
inline bool
isQueryVarItem(const PifItem &item)
{
    const TagClass cls = tagClass(item.tag);
    return cls == TagClass::FirstQueryVar || cls == TagClass::SubQueryVar;
}

/** True for a First/Subsequent database-variable item. */
inline bool
isDbVarItem(const PifItem &item)
{
    const TagClass cls = tagClass(item.tag);
    return cls == TagClass::FirstDbVar || cls == TagClass::SubDbVar;
}

/** True for any named (non-anonymous) variable item. */
inline bool
isNamedVarItem(const PifItem &item)
{
    return isVariableTag(item.tag) && item.tag != kAnonymousVar;
}

/** True for the anonymous-variable item. */
inline bool
isAnonVarItem(const PifItem &item)
{
    return tagClass(item.tag) == TagClass::AnonymousVar;
}

/** Append an item's wire encoding to a byte buffer. */
void serializeItem(const PifItem &item, std::vector<std::uint8_t> &out);

/** Decode one item at @p offset, advancing it.  Bad tags are fatal. */
PifItem deserializeItem(const std::vector<std::uint8_t> &in,
                        std::size_t &offset);

/** Total wire size of a run of items. */
std::size_t wireSize(const std::vector<PifItem> &items);

} // namespace clare::pif

#endif // CLARE_PIF_PIF_ITEM_HH
