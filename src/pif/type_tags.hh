/**
 * @file
 * The CLARE Pseudo In-line Format (PIF) type-tag scheme of Appendix
 * Table A1.
 *
 * Every PIF item starts with an 8-bit type tag.  Fixed tags encode the
 * five variable types and the pointer-based simple terms; the integer
 * in-line tag carries the most significant nibble of the value; the
 * complex-term tags carry a 5-bit arity in their low bits:
 *
 *   0010 0000  anonymous variable
 *   0010 0111  first query variable (1st-QV)
 *   0010 0101  subsequent query variable (Sub-QV)
 *   0010 0110  first DB variable (1st-DV)
 *   0010 0100  subsequent DB variable (Sub-DV)
 *   0000 1000  atom pointer (content = symbol table offset)
 *   0000 1001  float pointer (content = symbol table offset)
 *   0001 nnnn  integer in-line (nnnn = ms nibble, content = ls 32 bits)
 *   011a aaaa  structure in-line (content = functor offset)
 *   010a aaaa  structure pointer (content = functor, ext = pointer)
 *   111a aaaa  terminated list in-line
 *   101a aaaa  unterminated list in-line
 *   110a aaaa  terminated list pointer (DB side only)
 *   100a aaaa  unterminated list pointer (DB side only)
 *
 * The paper states 107 data types are supported; Table A1 as printed
 * actually spans a larger valid tag space (see countSupportedTags()),
 * and the paper gives no decomposition of the 107 — we implement the
 * table exactly as printed.
 */

#ifndef CLARE_PIF_TYPE_TAGS_HH
#define CLARE_PIF_TYPE_TAGS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace clare::pif {

/** An 8-bit PIF type tag. */
using Tag = std::uint8_t;

/** @name Fixed tag values (variables and pointer-based simple terms). */
/// @{
constexpr Tag kAnonymousVar = 0x20;
constexpr Tag kFirstQueryVar = 0x27;
constexpr Tag kSubQueryVar = 0x25;
constexpr Tag kFirstDbVar = 0x26;
constexpr Tag kSubDbVar = 0x24;
constexpr Tag kAtomPointer = 0x08;
constexpr Tag kFloatPointer = 0x09;
/// @}

/** @name Tag-family base values (low bits carry a nibble or arity). */
/// @{
constexpr Tag kIntegerInlineBase = 0x10;      // 0001 nnnn
constexpr Tag kStructInlineBase = 0x60;       // 011a aaaa
constexpr Tag kStructPointerBase = 0x40;      // 010a aaaa
constexpr Tag kTermListInlineBase = 0xe0;     // 111a aaaa
constexpr Tag kUntermListInlineBase = 0xa0;   // 101a aaaa
constexpr Tag kTermListPointerBase = 0xc0;    // 110a aaaa
constexpr Tag kUntermListPointerBase = 0x80;  // 100a aaaa
/// @}

/** Maximum arity representable in-line (5-bit arity field). */
constexpr std::uint32_t kMaxInlineArity = 31;

/** The three matching categories of section 3.1. */
enum class TagCategory : std::uint8_t
{
    Simple,     ///< atoms, integers, floats: equality test
    Variable,   ///< skip / store / fetch-then-match
    Complex,    ///< structures and lists: repetitive matching
};

/** Finer-grained classification used by the map ROM and the matcher. */
enum class TagClass : std::uint8_t
{
    AnonymousVar,
    FirstQueryVar,
    SubQueryVar,
    FirstDbVar,
    SubDbVar,
    Atom,
    Float,
    Integer,
    StructInline,
    StructPointer,
    TermListInline,
    UntermListInline,
    TermListPointer,
    UntermListPointer,
};

/** Number of distinct TagClass values. */
constexpr std::size_t kTagClassCount = 14;

/** Human-readable class name (matches Table A1 row labels). */
const char *tagClassName(TagClass cls);

/** Most significant nibble of an integer in-line tag. */
std::uint32_t tagIntNibble(Tag tag);

/** Compose an integer in-line tag from a value nibble. */
Tag makeIntegerTag(std::uint32_t ms_nibble);

/** Compose a complex tag from a family base and arity (1..31). */
Tag makeComplexTag(Tag base, std::uint32_t arity);

namespace detail {

/**
 * Everything the matcher asks of a tag byte, decoded once per byte
 * value: the streams call these predicates for every item of every
 * clause, so each is one load from kTagTable instead of a switch.
 */
struct TagInfo
{
    TagClass cls = TagClass::AnonymousVar;
    std::uint8_t flags = 0;
};

/** @name TagInfo::flags bits. */
/// @{
constexpr std::uint8_t kTagValid = 0x01;
constexpr std::uint8_t kTagVariable = 0x02;
constexpr std::uint8_t kTagComplex = 0x04;
constexpr std::uint8_t kTagList = 0x08;
constexpr std::uint8_t kTagInlineComplex = 0x10;
constexpr std::uint8_t kTagUntermList = 0x20;
constexpr std::uint8_t kTagExtension = 0x40;
/// @}

/** Table A1 applied to one byte; invalid bytes get no kTagValid. */
constexpr TagInfo
decodeTag(Tag tag)
{
    auto info = [](TagClass cls, std::uint8_t flags) {
        return TagInfo{cls, static_cast<std::uint8_t>(kTagValid | flags)};
    };
    switch (tag) {
      case kAnonymousVar: return info(TagClass::AnonymousVar, kTagVariable);
      case kFirstQueryVar: return info(TagClass::FirstQueryVar, kTagVariable);
      case kSubQueryVar: return info(TagClass::SubQueryVar, kTagVariable);
      case kFirstDbVar: return info(TagClass::FirstDbVar, kTagVariable);
      case kSubDbVar: return info(TagClass::SubDbVar, kTagVariable);
      case kAtomPointer: return info(TagClass::Atom, 0);
      case kFloatPointer: return info(TagClass::Float, 0);
      default:
        break;
    }
    if ((tag & 0xf0) == kIntegerInlineBase)
        return info(TagClass::Integer, 0);
    // Complex families: top 3 bits select the family, low 5 the arity.
    const std::uint32_t arity = tag & 0x1f;
    if (arity < 1 || arity > kMaxInlineArity)
        return TagInfo{};
    constexpr std::uint8_t list = kTagComplex | kTagList;
    switch (tag & 0xe0) {
      case kStructInlineBase:
        return info(TagClass::StructInline,
                    kTagComplex | kTagInlineComplex);
      case kStructPointerBase:
        // Only structure pointers carry a separate extension word;
        // list pointers keep the pointer in the content field.
        return info(TagClass::StructPointer, kTagComplex | kTagExtension);
      case kTermListInlineBase:
        return info(TagClass::TermListInline, list | kTagInlineComplex);
      case kUntermListInlineBase:
        return info(TagClass::UntermListInline,
                    list | kTagInlineComplex | kTagUntermList);
      case kTermListPointerBase:
        return info(TagClass::TermListPointer, list);
      case kUntermListPointerBase:
        return info(TagClass::UntermListPointer, list | kTagUntermList);
      default:
        return TagInfo{};
    }
}

inline constexpr auto kTagTable = [] {
    std::array<TagInfo, 256> table{};
    for (unsigned t = 0; t < table.size(); ++t)
        table[t] = decodeTag(static_cast<Tag>(t));
    return table;
}();

/** The panic behind every classifying predicate given a bad byte. */
[[noreturn]] void invalidTag(Tag tag);

/** Decoded info of a valid tag; invalid tags panic. */
inline const TagInfo &
validTagInfo(Tag tag)
{
    const TagInfo &info = kTagTable[tag];
    if (!(info.flags & kTagValid)) [[unlikely]]
        invalidTag(tag);
    return info;
}

} // namespace detail

/** True if the byte is a valid PIF tag. */
inline bool
isValidTag(Tag tag)
{
    return detail::kTagTable[tag].flags & detail::kTagValid;
}

/** Classify a tag; invalid tags panic. */
inline TagClass
tagClass(Tag tag)
{
    return detail::validTagInfo(tag).cls;
}

/** Category of a (valid) tag. */
inline TagCategory
tagCategory(Tag tag)
{
    const std::uint8_t flags = detail::validTagInfo(tag).flags;
    if (flags & detail::kTagVariable)
        return TagCategory::Variable;
    return flags & detail::kTagComplex ? TagCategory::Complex
                                       : TagCategory::Simple;
}

/** True for the five variable tags. */
inline bool
isVariableTag(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagVariable;
}

/** True for any structure or list tag. */
inline bool
isComplexTag(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagComplex;
}

/** True for any of the four list tags. */
inline bool
isListTag(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagList;
}

/** True for an in-line (elements-follow) complex tag. */
inline bool
isInlineComplexTag(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagInlineComplex;
}

/** True for an unterminated (tail-variable) list tag. */
inline bool
isUntermListTag(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagUntermList;
}

/** True if the tag's item carries a 32-bit extension word. */
inline bool
tagHasExtension(Tag tag)
{
    return detail::validTagInfo(tag).flags & detail::kTagExtension;
}

/** Arity field of a complex tag (low 5 bits). */
inline std::uint32_t
tagArity(Tag tag)
{
    clare_assert(isComplexTag(tag), "arity of a non-complex tag 0x%02x",
                 tag);
    return tag & 0x1f;
}

/** Enumerate every valid tag byte (ascending). */
std::vector<Tag> allValidTags();

/** Count of valid tag bytes (cf. the paper's "107 data types"). */
std::size_t countSupportedTags();

} // namespace clare::pif

#endif // CLARE_PIF_TYPE_TAGS_HH
