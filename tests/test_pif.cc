/**
 * @file
 * PIF tests: the Appendix-A1 tag scheme, item wire format, and the
 * clause/query encoder (variable classification, in-line vs pointer
 * complex terms, integer in-line encoding).
 */

#include <gtest/gtest.h>

#include <utility>

#include "pif/encoder.hh"
#include "pif/pif_item.hh"
#include "pif/type_tags.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"

namespace clare::pif {
namespace {

TEST(TypeTags, FixedTagValuesMatchTableA1)
{
    EXPECT_EQ(kAnonymousVar, 0x20);
    EXPECT_EQ(kFirstQueryVar, 0x27);
    EXPECT_EQ(kSubQueryVar, 0x25);
    EXPECT_EQ(kFirstDbVar, 0x26);
    EXPECT_EQ(kSubDbVar, 0x24);
    EXPECT_EQ(kAtomPointer, 0x08);
    EXPECT_EQ(kFloatPointer, 0x09);
}

TEST(TypeTags, FamilyBasePatterns)
{
    EXPECT_EQ(kStructInlineBase, 0x60);     // 011a aaaa
    EXPECT_EQ(kStructPointerBase, 0x40);    // 010a aaaa
    EXPECT_EQ(kTermListInlineBase, 0xe0);   // 111a aaaa
    EXPECT_EQ(kUntermListInlineBase, 0xa0); // 101a aaaa
    EXPECT_EQ(kTermListPointerBase, 0xc0);  // 110a aaaa
    EXPECT_EQ(kUntermListPointerBase, 0x80);// 100a aaaa
}

TEST(TypeTags, IntegerFamily)
{
    for (std::uint32_t n = 0; n <= 0xf; ++n) {
        Tag tag = makeIntegerTag(n);
        EXPECT_TRUE(isValidTag(tag));
        EXPECT_EQ(tagClass(tag), TagClass::Integer);
        EXPECT_EQ(tagIntNibble(tag), n);
    }
}

TEST(TypeTags, ComplexArityField)
{
    Tag tag = makeComplexTag(kStructInlineBase, 17);
    EXPECT_EQ(tagArity(tag), 17u);
    EXPECT_TRUE(isInlineComplexTag(tag));
    EXPECT_FALSE(isListTag(tag));
}

TEST(TypeTags, ZeroArityComplexIsInvalid)
{
    EXPECT_FALSE(isValidTag(0x60));     // struct in-line, arity 0
    EXPECT_FALSE(isValidTag(0xe0));     // list in-line, arity 0
}

TEST(TypeTags, Categories)
{
    EXPECT_EQ(tagCategory(kAtomPointer), TagCategory::Simple);
    EXPECT_EQ(tagCategory(kAnonymousVar), TagCategory::Variable);
    EXPECT_EQ(tagCategory(makeComplexTag(kTermListInlineBase, 2)),
              TagCategory::Complex);
}

TEST(TypeTags, ListPredicates)
{
    EXPECT_TRUE(isListTag(makeComplexTag(kUntermListPointerBase, 5)));
    EXPECT_TRUE(isUntermListTag(makeComplexTag(kUntermListInlineBase, 1)));
    EXPECT_FALSE(isUntermListTag(makeComplexTag(kTermListInlineBase, 1)));
}

TEST(TypeTags, OnlyStructPointerHasExtension)
{
    EXPECT_TRUE(tagHasExtension(makeComplexTag(kStructPointerBase, 3)));
    EXPECT_FALSE(tagHasExtension(makeComplexTag(kStructInlineBase, 3)));
    EXPECT_FALSE(tagHasExtension(makeComplexTag(kTermListPointerBase, 3)));
    EXPECT_FALSE(tagHasExtension(kAtomPointer));
}

TEST(TypeTags, EnumerationIsConsistent)
{
    auto tags = allValidTags();
    EXPECT_EQ(tags.size(), countSupportedTags());
    for (Tag t : tags)
        EXPECT_TRUE(isValidTag(t));
    // 5 variables + 2 pointer simples + 16 integers + 6 complex
    // families x 31 arities.
    EXPECT_EQ(tags.size(), 5u + 2u + 16u + 6u * 31u);
}

TEST(TypeTags, InvalidTagsRejected)
{
    EXPECT_FALSE(isValidTag(0x00));
    EXPECT_FALSE(isValidTag(0x21));
    EXPECT_FALSE(isValidTag(0x0a));
}

TEST(TypeTags, LookupTableAgreesWithTagFormatForEveryByte)
{
    // The predicates read a 256-entry table; rebuild each answer here
    // straight from the Table A1 bit patterns, byte by byte.
    std::size_t valid = 0;
    for (unsigned b = 0; b < 256; ++b) {
        const Tag tag = static_cast<Tag>(b);
        const unsigned family = b & 0xe0;
        const unsigned arity = b & 0x1f;
        const bool variable = b == 0x20 || b == 0x24 || b == 0x25 ||
            b == 0x26 || b == 0x27;
        const bool pointer_simple = b == 0x08 || b == 0x09;
        const bool integer = (b & 0xf0) == 0x10;
        const bool complex = family >= 0x40 && arity >= 1;
        const bool list = complex && family >= 0x80;
        const bool inline_complex = complex &&
            (family == 0x60 || family == 0xe0 || family == 0xa0);
        const bool unterm = complex && (family == 0xa0 || family == 0x80);
        const bool expect_valid =
            variable || pointer_simple || integer || complex;
        ASSERT_EQ(isValidTag(tag), expect_valid) << "byte " << b;
        if (!expect_valid)
            continue;
        ++valid;
        EXPECT_EQ(isVariableTag(tag), variable) << "byte " << b;
        EXPECT_EQ(isComplexTag(tag), complex) << "byte " << b;
        EXPECT_EQ(isListTag(tag), list) << "byte " << b;
        EXPECT_EQ(isInlineComplexTag(tag), inline_complex) << "byte " << b;
        EXPECT_EQ(isUntermListTag(tag), unterm) << "byte " << b;
        EXPECT_EQ(tagHasExtension(tag), complex && family == 0x40)
            << "byte " << b;
        EXPECT_EQ(tagCategory(tag),
                  variable ? TagCategory::Variable
                           : complex ? TagCategory::Complex
                                     : TagCategory::Simple)
            << "byte " << b;
        if (complex)
            EXPECT_EQ(tagArity(tag), arity) << "byte " << b;
        if (integer)
            EXPECT_EQ(tagClass(tag), TagClass::Integer) << "byte " << b;
    }
    EXPECT_EQ(valid, countSupportedTags());
}

TEST(TypeTags, FamilyBasesAndArityBoundaries)
{
    const std::pair<Tag, TagClass> families[] = {
        {kStructPointerBase, TagClass::StructPointer},
        {kStructInlineBase, TagClass::StructInline},
        {kUntermListPointerBase, TagClass::UntermListPointer},
        {kUntermListInlineBase, TagClass::UntermListInline},
        {kTermListPointerBase, TagClass::TermListPointer},
        {kTermListInlineBase, TagClass::TermListInline},
    };
    for (const auto &[base, cls] : families) {
        // Arity 0 is no tag; 1 and 31 are the first and last ones.
        EXPECT_FALSE(isValidTag(base)) << int(base);
        for (std::uint32_t arity : {1u, kMaxInlineArity}) {
            const Tag tag = makeComplexTag(base, arity);
            EXPECT_EQ(tagClass(tag), cls) << int(tag);
            EXPECT_EQ(tagArity(tag), arity) << int(tag);
        }
    }
    const std::pair<Tag, TagClass> fixed[] = {
        {kAnonymousVar, TagClass::AnonymousVar},
        {kFirstQueryVar, TagClass::FirstQueryVar},
        {kSubQueryVar, TagClass::SubQueryVar},
        {kFirstDbVar, TagClass::FirstDbVar},
        {kSubDbVar, TagClass::SubDbVar},
        {kAtomPointer, TagClass::Atom},
        {kFloatPointer, TagClass::Float},
    };
    for (const auto &[tag, cls] : fixed)
        EXPECT_EQ(tagClass(tag), cls) << int(tag);
    EXPECT_EQ(tagClass(kIntegerInlineBase), TagClass::Integer);
    EXPECT_EQ(tagClass(kIntegerInlineBase | 0x0f), TagClass::Integer);
}

TEST(TypeTagsDeathTest, InvalidByteStillPanicsInTagClass)
{
    EXPECT_DEATH(tagClass(0x00), "invalid PIF tag 0x00");
    EXPECT_DEATH(tagClass(kStructInlineBase), "invalid PIF tag 0x60");
    EXPECT_DEATH(isInlineComplexTag(0x21), "invalid PIF tag 0x21");
}

TEST(PifItem, IntegerRoundTrip)
{
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{-1}, std::int64_t{123456789},
                           (std::int64_t{1} << 35) - 1,
                           -(std::int64_t{1} << 35)}) {
        PifItem item = PifItem::makeInteger(v);
        EXPECT_EQ(item.integerValue(), v) << v;
    }
}

TEST(PifItem, IntegerRange)
{
    EXPECT_TRUE(PifItem::integerFits((std::int64_t{1} << 35) - 1));
    EXPECT_FALSE(PifItem::integerFits(std::int64_t{1} << 35));
    EXPECT_TRUE(PifItem::integerFits(-(std::int64_t{1} << 35)));
    EXPECT_FALSE(PifItem::integerFits(-(std::int64_t{1} << 35) - 1));
}

TEST(PifItem, WireSizeDependsOnExtension)
{
    PifItem atom{kAtomPointer, 7, 0};
    EXPECT_EQ(atom.wireBytes(), 5u);
    PifItem sptr{makeComplexTag(kStructPointerBase, 2), 7, 99};
    EXPECT_EQ(sptr.wireBytes(), 9u);
}

TEST(PifItem, SerializeRoundTrip)
{
    std::vector<PifItem> items = {
        PifItem{kAtomPointer, 0x01020304, 0},
        PifItem{makeComplexTag(kStructPointerBase, 3), 5, 0xdeadbeef},
        PifItem::makeInteger(-42),
        PifItem{kFirstDbVar, 2, 0},
    };
    std::vector<std::uint8_t> bytes;
    for (const auto &item : items)
        serializeItem(item, bytes);
    EXPECT_EQ(bytes.size(), wireSize(items));

    std::size_t offset = 0;
    for (const auto &expected : items) {
        PifItem got = deserializeItem(bytes, offset);
        EXPECT_EQ(got, expected);
    }
    EXPECT_EQ(offset, bytes.size());
}

TEST(PifItem, DeserializeRejectsBadTag)
{
    std::vector<std::uint8_t> bytes = {0x00, 1, 2, 3, 4};
    std::size_t offset = 0;
    EXPECT_THROW(deserializeItem(bytes, offset), FatalError);
}

TEST(PifItem, DeserializeRejectsTruncation)
{
    std::vector<std::uint8_t> bytes = {kAtomPointer, 1, 2};
    std::size_t offset = 0;
    EXPECT_THROW(deserializeItem(bytes, offset), FatalError);
}

TEST(PifItem, VarItemHelpers)
{
    EXPECT_TRUE(isQueryVarItem(PifItem{kFirstQueryVar, 0, 0}));
    EXPECT_TRUE(isQueryVarItem(PifItem{kSubQueryVar, 0, 0}));
    EXPECT_TRUE(isDbVarItem(PifItem{kSubDbVar, 0, 0}));
    EXPECT_FALSE(isDbVarItem(PifItem{kFirstQueryVar, 0, 0}));
    EXPECT_TRUE(isAnonVarItem(PifItem{kAnonymousVar, 0, 0}));
    EXPECT_FALSE(isNamedVarItem(PifItem{kAnonymousVar, 0, 0}));
}

class EncoderTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    Encoder encoder;

    EncodedArgs
    encode(const std::string &text, Side side)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return encoder.encodeArgs(t.arena, t.root, side);
    }
};

TEST_F(EncoderTest, GroundFactArguments)
{
    EncodedArgs args = encode("p(foo, 42, 2.5)", Side::Db);
    ASSERT_EQ(args.argCount(), 3u);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::Atom);
    EXPECT_EQ(args.items[0].content, sym.lookup("foo"));
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::Integer);
    EXPECT_EQ(args.items[1].integerValue(), 42);
    EXPECT_EQ(tagClass(args.items[2].tag), TagClass::Float);
    EXPECT_EQ(args.varSlots, 0u);
}

TEST_F(EncoderTest, VariableClassificationDbSide)
{
    EncodedArgs args = encode("p(X, Y, X)", Side::Db);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::FirstDbVar);
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::FirstDbVar);
    EXPECT_EQ(tagClass(args.items[2].tag), TagClass::SubDbVar);
    EXPECT_EQ(args.items[0].content, args.items[2].content);
    EXPECT_NE(args.items[0].content, args.items[1].content);
    EXPECT_EQ(args.varSlots, 2u);
}

TEST_F(EncoderTest, VariableClassificationQuerySide)
{
    EncodedArgs args = encode("p(S, S)", Side::Query);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::FirstQueryVar);
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::SubQueryVar);
}

TEST_F(EncoderTest, AnonymousVariables)
{
    EncodedArgs args = encode("p(_, _)", Side::Db);
    EXPECT_EQ(args.items[0].tag, kAnonymousVar);
    EXPECT_EQ(args.items[1].tag, kAnonymousVar);
    EXPECT_EQ(args.varSlots, 0u);
}

TEST_F(EncoderTest, InlineStructureLayout)
{
    EncodedArgs args = encode("p(f(a, X), b)", Side::Db);
    // Items: struct-header, a, X, b.
    ASSERT_EQ(args.items.size(), 4u);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::StructInline);
    EXPECT_EQ(tagArity(args.items[0].tag), 2u);
    EXPECT_EQ(args.items[0].content, sym.lookup("f"));
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::Atom);
    EXPECT_EQ(tagClass(args.items[2].tag), TagClass::FirstDbVar);
    EXPECT_EQ(args.argIndex[0], 0u);
    EXPECT_EQ(args.argIndex[1], 3u);
    EXPECT_EQ(itemWidth(args.items, 0), 3u);
}

TEST_F(EncoderTest, NestedComplexBecomesPointer)
{
    EncodedArgs args = encode("p(f(g(a)))", Side::Db);
    // Items: f-header, g-pointer (the nested struct is NOT in-lined).
    ASSERT_EQ(args.items.size(), 2u);
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::StructPointer);
    EXPECT_EQ(args.items[1].content, sym.lookup("g"));
    EXPECT_TRUE(args.items[1].hasExtension());
}

TEST_F(EncoderTest, NestedListBecomesPointer)
{
    EncodedArgs args = encode("p(f([a,b]))", Side::Db);
    ASSERT_EQ(args.items.size(), 2u);
    EXPECT_EQ(tagClass(args.items[1].tag), TagClass::TermListPointer);
    EXPECT_EQ(tagArity(args.items[1].tag), 2u);
}

TEST_F(EncoderTest, TerminatedListInline)
{
    EncodedArgs args = encode("p([a, b, c])", Side::Db);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::TermListInline);
    EXPECT_EQ(tagArity(args.items[0].tag), 3u);
    EXPECT_EQ(args.items.size(), 4u);
}

TEST_F(EncoderTest, UnterminatedListOmitsTailItem)
{
    EncodedArgs args = encode("p([a, b | T])", Side::Db);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::UntermListInline);
    EXPECT_EQ(tagArity(args.items[0].tag), 2u);
    // Header + 2 elements; the tail variable is not emitted.
    EXPECT_EQ(args.items.size(), 3u);
    EXPECT_EQ(args.varSlots, 0u);
}

TEST_F(EncoderTest, WideStructureBecomesPointerWithSaturatedArity)
{
    std::string text = "p(f(";
    for (int i = 0; i < 40; ++i) {
        if (i)
            text += ",";
        text += "a";
    }
    text += "))";
    EncodedArgs args = encode(text, Side::Db);
    ASSERT_EQ(args.items.size(), 1u);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::StructPointer);
    EXPECT_EQ(tagArity(args.items[0].tag), kMaxInlineArity);
}

TEST_F(EncoderTest, MaxInlineArityStaysInline)
{
    std::string text = "p(f(";
    for (std::uint32_t i = 0; i < kMaxInlineArity; ++i) {
        if (i)
            text += ",";
        text += "a";
    }
    text += "))";
    EncodedArgs args = encode(text, Side::Db);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::StructInline);
    EXPECT_EQ(args.items.size(), 1u + kMaxInlineArity);
}

TEST_F(EncoderTest, ZeroArityPredicate)
{
    term::ParsedTerm t = reader.parseTerm("halt");
    EncodedArgs args = encoder.encodeArgs(t.arena, t.root, Side::Db);
    EXPECT_EQ(args.argCount(), 0u);
    EXPECT_TRUE(args.items.empty());
}

TEST_F(EncoderTest, EncodeTermSingleArgument)
{
    term::ParsedTerm t = reader.parseTerm("f(a)");
    EncodedArgs args = encoder.encodeTerm(t.arena, t.root, Side::Query);
    EXPECT_EQ(args.argCount(), 1u);
    EXPECT_EQ(tagClass(args.items[0].tag), TagClass::StructInline);
}

TEST_F(EncoderTest, OversizedIntegerIsFatal)
{
    term::TermArena arena;
    term::TermRef big = arena.makeInt(std::int64_t{1} << 40);
    term::TermRef head = arena.makeStruct(sym.intern("p"),
                                          std::span(&big, 1));
    EXPECT_THROW(encoder.encodeArgs(arena, head, Side::Db), FatalError);
}

TEST_F(EncoderTest, VarSlotsCountDistinctVars)
{
    EncodedArgs args = encode("p(A, f(B, A), C)", Side::Db);
    EXPECT_EQ(args.varSlots, 3u);
}

TEST_F(EncoderTest, PointerValuesAreClauseLocalAndDistinct)
{
    EncodedArgs args = encode("p(f(g(a), g(b)))", Side::Db);
    ASSERT_EQ(args.items.size(), 3u);
    EXPECT_NE(args.items[1].extension, args.items[2].extension);
}

} // namespace
} // namespace clare::pif
