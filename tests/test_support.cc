/**
 * @file
 * Unit tests for the support library: logging, simulated time,
 * deterministic RNG, bit vectors and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "support/bitvec.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/sim_time.hh"
#include "support/table.hh"

namespace clare {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(clare_fatal("bad input %d", 42), FatalError);
}

TEST(Logging, FatalMessageContainsTextAndLocation)
{
    try {
        clare_fatal("code %d", 7);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("code 7"), std::string::npos);
        EXPECT_NE(msg.find("test_support.cc"), std::string::npos);
    }
}

TEST(Logging, FormatHelper)
{
    EXPECT_EQ(detail::format("%s-%d", "x", 3), "x-3");
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    clare_assert(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

TEST(SimTime, UnitRatios)
{
    EXPECT_EQ(kNanosecond, 1000u * kPicosecond);
    EXPECT_EQ(kSecond, 1000u * kMillisecond);
    EXPECT_EQ(nanoseconds(105), 105u * kNanosecond);
    EXPECT_EQ(toNanoseconds(nanoseconds(235)), 235u);
}

TEST(SimTime, BytesPerSecond)
{
    // 1 byte per 235 ns is ~4.2553 MB/s (the paper's worst case).
    double rate = bytesPerSecond(1, nanoseconds(235));
    EXPECT_NEAR(rate, 4.2553e6, 1e3);
    EXPECT_EQ(bytesPerSecond(100, 0), 0.0);
}

TEST(SimTime, ClockAdvances)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(10);
    EXPECT_EQ(clock.now(), 10u);
    EXPECT_EQ(clock.advanceTo(5), 0u);      // never backwards
    EXPECT_EQ(clock.now(), 10u);
    EXPECT_EQ(clock.advanceTo(25), 15u);
    EXPECT_EQ(clock.now(), 25u);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

TEST(Random, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Random, BelowInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, ChanceExtremes)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Random, IdentifierShape)
{
    Rng rng(4);
    std::string id = rng.identifier(8);
    EXPECT_EQ(id.size(), 8u);
    for (char c : id)
        EXPECT_TRUE(c >= 'a' && c <= 'z');
}

TEST(BitVec, SetTestClear)
{
    BitVec v(70);
    EXPECT_TRUE(v.none());
    v.set(0);
    v.set(69);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(69));
    EXPECT_FALSE(v.test(35));
    EXPECT_EQ(v.popcount(), 2u);
    v.clear(0);
    EXPECT_FALSE(v.test(0));
}

TEST(BitVec, SubsetSemantics)
{
    BitVec a(64);
    BitVec b(64);
    a.set(3);
    b.set(3);
    b.set(9);
    EXPECT_TRUE(a.subsetOf(b));
    EXPECT_FALSE(b.subsetOf(a));
    BitVec empty(64);
    EXPECT_TRUE(empty.subsetOf(a));
}

TEST(BitVec, OrAndOperators)
{
    BitVec a(40);
    BitVec b(40);
    a.set(1);
    b.set(2);
    a |= b;
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(2));
    a &= b;
    EXPECT_FALSE(a.test(1));
    EXPECT_TRUE(a.test(2));
}

TEST(BitVec, AndNotIsZeroMatchesSubsetOf)
{
    BitVec a(130);
    BitVec b(130);
    EXPECT_TRUE(BitVec::andNotIsZero(a, b));    // empty a passes
    a.set(5);
    a.set(128);
    EXPECT_FALSE(BitVec::andNotIsZero(a, b));
    b.set(5);
    EXPECT_FALSE(BitVec::andNotIsZero(a, b));   // bit 128 still missing
    b.set(128);
    EXPECT_TRUE(BitVec::andNotIsZero(a, b));
    b.set(77);                                   // extra bits in b are fine
    EXPECT_TRUE(BitVec::andNotIsZero(a, b));
    EXPECT_EQ(BitVec::andNotIsZero(a, b), a.subsetOf(b));
    EXPECT_EQ(BitVec::andNotIsZero(b, a), b.subsetOf(a));
}

TEST(BitVec, PopcountCountsAcrossWordBoundaries)
{
    BitVec v(200);
    EXPECT_EQ(v.popcount(), 0u);
    for (std::size_t bit : {0u, 63u, 64u, 127u, 128u, 199u})
        v.set(bit);
    EXPECT_EQ(v.popcount(), 6u);
    v.clear(64);
    EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, WordAccessorsExposeBackingWords)
{
    BitVec v(70);
    v.set(1);
    v.set(65);
    ASSERT_EQ(v.wordCount(), 2u);
    EXPECT_EQ(v.word(0), std::uint64_t{1} << 1);
    EXPECT_EQ(v.word(1), std::uint64_t{1} << 1);
}

TEST(BitVec, DeserializeIntoReusesBackingWords)
{
    BitVec v(100);
    v.set(42);
    v.set(99);
    std::vector<std::uint8_t> bytes;
    v.serialize(bytes);

    BitVec scratch(100);
    scratch.set(7);
    std::size_t offset = 0;
    scratch.deserializeInto(bytes, offset, 100);
    EXPECT_EQ(offset, bytes.size());
    EXPECT_TRUE(scratch == v);
    EXPECT_FALSE(scratch.test(7));
}

TEST(BitVec, SerializeRoundTrip)
{
    BitVec v(100);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(99);
    std::vector<std::uint8_t> bytes;
    v.serialize(bytes);
    EXPECT_EQ(bytes.size(), BitVec::serializedBytes(100));
    std::size_t offset = 0;
    BitVec w = BitVec::deserialize(bytes, offset, 100);
    EXPECT_EQ(offset, bytes.size());
    EXPECT_TRUE(v == w);
}

TEST(BitVec, ToStringMsbFirst)
{
    BitVec v(4);
    v.set(0);
    EXPECT_EQ(v.toString(), "0001");
    v.set(3);
    EXPECT_EQ(v.toString(), "1001");
}

TEST(Table, RendersAlignedCells)
{
    Table t("Demo");
    t.header({"Op", "ns"});
    t.row({"MATCH", "105"});
    t.row({"QUERY_CROSS_BOUND_FETCH", "235"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("MATCH"), std::string::npos);
    EXPECT_NE(s.find("235"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(4.25, 2), "4.25");
    EXPECT_EQ(Table::num(std::uint64_t{1234}), "1234");
}

} // namespace
} // namespace clare
