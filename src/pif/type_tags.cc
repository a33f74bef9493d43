#include "pif/type_tags.hh"

#include "support/logging.hh"

namespace clare::pif {

namespace detail {

void
invalidTag(Tag tag)
{
    clare_panic("invalid PIF tag 0x%02x", tag);
}

} // namespace detail

const char *
tagClassName(TagClass cls)
{
    switch (cls) {
      case TagClass::AnonymousVar: return "Anonymous Var";
      case TagClass::FirstQueryVar: return "First Query Var";
      case TagClass::SubQueryVar: return "Subsequent Query Var";
      case TagClass::FirstDbVar: return "First DB Var";
      case TagClass::SubDbVar: return "Subsequent DB Var";
      case TagClass::Atom: return "Atom Pointer";
      case TagClass::Float: return "Float Pointer";
      case TagClass::Integer: return "Integer In-line";
      case TagClass::StructInline: return "Structure In-line";
      case TagClass::StructPointer: return "Structure Pointer";
      case TagClass::TermListInline: return "Terminated List In-line";
      case TagClass::UntermListInline: return "Unterminated List In-line";
      case TagClass::TermListPointer: return "Terminated List Pointer";
      case TagClass::UntermListPointer: return "Unterminated List Pointer";
    }
    return "?";
}

std::uint32_t
tagIntNibble(Tag tag)
{
    clare_assert(tagClass(tag) == TagClass::Integer,
                 "nibble of non-integer tag 0x%02x", tag);
    return tag & 0x0f;
}

Tag
makeIntegerTag(std::uint32_t ms_nibble)
{
    clare_assert(ms_nibble <= 0x0f, "integer nibble %u out of range",
                 ms_nibble);
    return static_cast<Tag>(kIntegerInlineBase | ms_nibble);
}

Tag
makeComplexTag(Tag base, std::uint32_t arity)
{
    clare_assert(arity >= 1 && arity <= kMaxInlineArity,
                 "complex tag arity %u out of range", arity);
    return static_cast<Tag>(base | arity);
}

std::vector<Tag>
allValidTags()
{
    std::vector<Tag> tags;
    for (int t = 0; t < 256; ++t)
        if (isValidTag(static_cast<Tag>(t)))
            tags.push_back(static_cast<Tag>(t));
    return tags;
}

std::size_t
countSupportedTags()
{
    return allValidTags().size();
}

} // namespace clare::pif
