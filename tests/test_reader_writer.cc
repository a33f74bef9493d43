/**
 * @file
 * Parser and writer tests: Edinburgh-syntax round trips, variable
 * scoping, lists, comments and error reporting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/logging.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

namespace clare::term {
namespace {

class ReaderTest : public ::testing::Test
{
  protected:
    SymbolTable sym;
    TermReader reader{sym};
    TermWriter writer{sym};

    std::string
    roundTrip(const std::string &text)
    {
        ParsedTerm t = reader.parseTerm(text);
        return writer.write(t.arena, t.root);
    }
};

TEST_F(ReaderTest, Atom)
{
    ParsedTerm t = reader.parseTerm("hello");
    EXPECT_EQ(t.arena.kind(t.root), TermKind::Atom);
    EXPECT_EQ(sym.name(t.arena.atomSymbol(t.root)), "hello");
}

TEST_F(ReaderTest, AtomWithUnderscoresAndDigits)
{
    EXPECT_EQ(roundTrip("married_couple2"), "married_couple2");
}

TEST_F(ReaderTest, QuotedAtom)
{
    ParsedTerm t = reader.parseTerm("'Hello World'");
    EXPECT_EQ(sym.name(t.arena.atomSymbol(t.root)), "Hello World");
    EXPECT_EQ(roundTrip("'Hello World'"), "'Hello World'");
}

TEST_F(ReaderTest, QuotedAtomEscapes)
{
    ParsedTerm t = reader.parseTerm("'it\\'s'");
    EXPECT_EQ(sym.name(t.arena.atomSymbol(t.root)), "it's");
}

TEST_F(ReaderTest, Integers)
{
    ParsedTerm t = reader.parseTerm("42");
    EXPECT_EQ(t.arena.intValue(t.root), 42);
    ParsedTerm n = reader.parseTerm("-17");
    EXPECT_EQ(n.arena.intValue(n.root), -17);
}

TEST_F(ReaderTest, IntegerRange)
{
    ParsedTerm m = reader.parseTerm("-9223372036854775808");
    EXPECT_EQ(m.arena.intValue(m.root), INT64_MIN);
    EXPECT_EQ(roundTrip("f(-9223372036854775808, 9223372036854775807)"),
              "f(-9223372036854775808,9223372036854775807)");
    EXPECT_THROW(reader.parseTerm("9223372036854775808"), FatalError);
    EXPECT_THROW(reader.parseTerm("-9223372036854775809"), FatalError);
}

TEST_F(ReaderTest, Floats)
{
    ParsedTerm t = reader.parseTerm("3.5");
    EXPECT_EQ(t.arena.kind(t.root), TermKind::Float);
    EXPECT_DOUBLE_EQ(sym.floatValue(t.arena.floatId(t.root)), 3.5);
    ParsedTerm e = reader.parseTerm("1.5e2");
    EXPECT_DOUBLE_EQ(sym.floatValue(e.arena.floatId(e.root)), 150.0);
}

TEST_F(ReaderTest, NegativeFloat)
{
    ParsedTerm t = reader.parseTerm("-2.25");
    EXPECT_DOUBLE_EQ(sym.floatValue(t.arena.floatId(t.root)), -2.25);
}

TEST_F(ReaderTest, Variables)
{
    ParsedTerm t = reader.parseTerm("f(X, Y, X)");
    EXPECT_EQ(t.varNames.size(), 2u);
    EXPECT_EQ(t.arena.varId(t.arena.arg(t.root, 0)),
              t.arena.varId(t.arena.arg(t.root, 2)));
    EXPECT_NE(t.arena.varId(t.arena.arg(t.root, 0)),
              t.arena.varId(t.arena.arg(t.root, 1)));
}

TEST_F(ReaderTest, AnonymousVariablesAreDistinct)
{
    ParsedTerm t = reader.parseTerm("f(_, _)");
    TermRef a = t.arena.arg(t.root, 0);
    TermRef b = t.arena.arg(t.root, 1);
    EXPECT_TRUE(t.arena.isAnonymous(a));
    EXPECT_NE(t.arena.varId(a), t.arena.varId(b));
    EXPECT_TRUE(t.varNames.empty());
}

TEST_F(ReaderTest, UnderscorePrefixedVariableIsNamed)
{
    ParsedTerm t = reader.parseTerm("f(_Foo, _Foo)");
    EXPECT_EQ(t.arena.varId(t.arena.arg(t.root, 0)),
              t.arena.varId(t.arena.arg(t.root, 1)));
}

TEST_F(ReaderTest, NestedStructures)
{
    EXPECT_EQ(roundTrip("f(g(h(a)), b)"), "f(g(h(a)),b)");
}

TEST_F(ReaderTest, EmptyList)
{
    ParsedTerm t = reader.parseTerm("[]");
    EXPECT_EQ(t.arena.kind(t.root), TermKind::Atom);
    EXPECT_EQ(t.arena.atomSymbol(t.root), SymbolTable::kNil);
}

TEST_F(ReaderTest, ProperList)
{
    ParsedTerm t = reader.parseTerm("[a, b, c]");
    EXPECT_EQ(t.arena.kind(t.root), TermKind::List);
    EXPECT_EQ(t.arena.arity(t.root), 3u);
    EXPECT_TRUE(t.arena.isTerminatedList(t.root));
}

TEST_F(ReaderTest, PartialList)
{
    ParsedTerm t = reader.parseTerm("[a, b | Tail]");
    EXPECT_FALSE(t.arena.isTerminatedList(t.root));
    EXPECT_EQ(t.arena.arity(t.root), 2u);
    EXPECT_EQ(roundTrip("[a,b|T]"), "[a,b|T]");
}

TEST_F(ReaderTest, NestedListTailSplices)
{
    // [a|[b,c]] is the same term as [a,b,c].
    ParsedTerm t = reader.parseTerm("[a|[b,c]]");
    EXPECT_EQ(t.arena.arity(t.root), 3u);
    EXPECT_TRUE(t.arena.isTerminatedList(t.root));
}

TEST_F(ReaderTest, ListOfStructures)
{
    EXPECT_EQ(roundTrip("[f(X),g(Y)]"), "[f(X),g(Y)]");
}

TEST_F(ReaderTest, ParenthesizedTerm)
{
    EXPECT_EQ(roundTrip("(foo)"), "foo");
}

TEST_F(ReaderTest, EqualsSugar)
{
    ParsedTerm t = reader.parseTerm("X = f(Y)");
    EXPECT_EQ(t.arena.kind(t.root), TermKind::Struct);
    EXPECT_EQ(sym.name(t.arena.functor(t.root)), "=");
    EXPECT_EQ(t.arena.arity(t.root), 2u);
}

TEST_F(ReaderTest, LineComments)
{
    ParsedTerm t = reader.parseTerm("% comment\nfoo % trailing\n");
    EXPECT_EQ(sym.name(t.arena.atomSymbol(t.root)), "foo");
}

TEST_F(ReaderTest, BlockComments)
{
    ParsedTerm t = reader.parseTerm("/* a\nb */ foo");
    EXPECT_EQ(sym.name(t.arena.atomSymbol(t.root)), "foo");
}

TEST_F(ReaderTest, UnterminatedBlockCommentFails)
{
    EXPECT_THROW(reader.parseTerm("/* oops"), FatalError);
}

TEST_F(ReaderTest, TrailingGarbageFails)
{
    EXPECT_THROW(reader.parseTerm("foo bar"), FatalError);
}

TEST_F(ReaderTest, UnbalancedParenFails)
{
    EXPECT_THROW(reader.parseTerm("f(a"), FatalError);
}

TEST_F(ReaderTest, UnterminatedQuoteFails)
{
    EXPECT_THROW(reader.parseTerm("'abc"), FatalError);
}

TEST_F(ReaderTest, BadListTailFails)
{
    EXPECT_THROW(reader.parseTerm("[a|b]"), FatalError);
}

TEST_F(ReaderTest, FactClause)
{
    Clause c = reader.parseClause("likes(mary, wine).");
    EXPECT_TRUE(c.isFact());
    EXPECT_EQ(c.predicate().arity, 2u);
}

TEST_F(ReaderTest, RuleClause)
{
    Clause c = reader.parseClause(
        "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).");
    EXPECT_FALSE(c.isFact());
    EXPECT_EQ(c.body().size(), 2u);
    EXPECT_EQ(c.varCount(), 3u);
}

TEST_F(ReaderTest, ClauseMissingDotFails)
{
    EXPECT_THROW(reader.parseClause("p(a)"), FatalError);
}

TEST_F(ReaderTest, ProgramMultipleClauses)
{
    auto clauses = reader.parseProgram(
        "p(a).\n"
        "p(b).\n"
        "q(X) :- p(X).\n");
    ASSERT_EQ(clauses.size(), 3u);
    EXPECT_TRUE(clauses[0].isFact());
    EXPECT_FALSE(clauses[2].isFact());
}

TEST_F(ReaderTest, ProgramVariablesScopedPerClause)
{
    auto clauses = reader.parseProgram("p(X).\nq(X).\n");
    // Each clause has its own variable numbering starting at 0.
    EXPECT_EQ(clauses[0].varCount(), 1u);
    EXPECT_EQ(clauses[1].varCount(), 1u);
}

TEST_F(ReaderTest, EmptyProgram)
{
    EXPECT_TRUE(reader.parseProgram("  % nothing here\n").empty());
}

TEST_F(ReaderTest, QueryWithPrefix)
{
    ParsedQuery q = reader.parseQuery("?- p(X), q(X).");
    EXPECT_EQ(q.goals.size(), 2u);
    EXPECT_EQ(q.varNames.size(), 1u);
}

TEST_F(ReaderTest, QueryWithoutPrefixOrDot)
{
    ParsedQuery q = reader.parseQuery("p(a)");
    EXPECT_EQ(q.goals.size(), 1u);
}

TEST_F(ReaderTest, QueryWithEquals)
{
    ParsedQuery q = reader.parseQuery("X = f(a), p(X).");
    EXPECT_EQ(q.goals.size(), 2u);
}

TEST_F(ReaderTest, WriterQuotesWhenNeeded)
{
    TermArena arena;
    TermRef t = arena.makeAtom(sym.intern("needs quoting"));
    EXPECT_EQ(writer.write(arena, t), "'needs quoting'");
    TermRef ok = arena.makeAtom(sym.intern("no_quotes"));
    EXPECT_EQ(writer.write(arena, ok), "no_quotes");
}

TEST_F(ReaderTest, WriterFloatAlwaysReadsBackAsFloat)
{
    TermArena arena;
    TermRef t = arena.makeFloat(sym.internFloat(2.0));
    std::string text = writer.write(arena, t);
    ParsedTerm back = reader.parseTerm(text);
    EXPECT_EQ(back.arena.kind(back.root), TermKind::Float);
}

TEST_F(ReaderTest, WriteClauseRoundTrip)
{
    Clause c = reader.parseClause("p(X, [a|X]) :- q(X), r.");
    std::string text = writer.writeClause(c);
    Clause back = reader.parseClause(text);
    EXPECT_EQ(writer.writeClause(back), text);
}

TEST_F(ReaderTest, ClauseRoundTripPreservesStructure)
{
    const char *source = "route(f(1,2.5),[x,y|T],'odd atom').";
    Clause a = reader.parseClause(source);
    Clause b = reader.parseClause(writer.writeClause(a));
    EXPECT_TRUE(TermArena::equal(a.arena(), a.head(),
                                 b.arena(), b.head()));
}

TEST_F(ReaderTest, WriterFloatsReadBackExactly)
{
    for (double v : {3.14159265, 0.1, 1e-300, 5e-324,
                     1.7976931348623157e308, 0.30000000000000004,
                     -2.5, 100.0, 1e22}) {
        TermArena arena;
        const std::string text =
            writer.write(arena, arena.makeFloat(sym.internFloat(v)));
        ParsedTerm back = reader.parseTerm(text);
        ASSERT_EQ(back.arena.kind(back.root), TermKind::Float) << text;
        EXPECT_EQ(sym.floatValue(back.arena.floatId(back.root)), v)
            << text;
    }
    EXPECT_EQ(roundTrip("p(3.14159265)"), "p(3.14159265)");
    EXPECT_EQ(roundTrip("1 - -0.0"), "1-(-0.0)");
}

TEST_F(ReaderTest, WriterClauseTextReadsBack)
{
    // Atoms the reader would take for a neck, an end or a comment, and
    // a symbolic structure beside a symbolic operator.
    for (const char *text : {"p(':-','?-','/*').", "p :- '.'.",
                             "p :- =.. .", "p(a-(-(1)),b+(~(c))).",
                             "p :- (a;b), (c:-d)."}) {
        const Clause c = reader.parseClause(text);
        EXPECT_EQ(writer.writeClause(c), text);
    }
}

/** The text of @p clause's stored form. */
class StoredFormTest : public ReaderTest
{
  protected:
    std::string
    stored(const Clause &clause)
    {
        const Clause s = storedClause(clause.view(), sym);
        const std::string text = writer.writeClause(s);
        // The text reads back as the stored form, node for node.
        const Clause back = reader.parseClause(text);
        EXPECT_EQ(back.body().size(), s.body().size()) << text;
        EXPECT_TRUE(TermArena::equal(back.arena(), back.head(),
                                     s.arena(), s.head()))
            << text;
        return text;
    }

    /** big(@p a, @p b) over @p arena. */
    Clause
    big(TermArena arena, TermRef a, TermRef b)
    {
        TermRef args[] = {a, b};
        TermRef head = arena.makeStruct(sym.intern("big"), args);
        return Clause(std::move(arena), head, {});
    }
};

TEST_F(StoredFormTest, ParsedClausesAreStoredAsParsed)
{
    for (const char *text : {"p(X, _, [a|T], Y) :- q(Y, _), r(X, T).",
                             "p(_1, _G3, _) :- \\+ q(_1)."}) {
        const Clause c = reader.parseClause(text);
        EXPECT_EQ(stored(c), writer.writeClause(c));
    }
}

TEST_F(StoredFormTest, VariablesAreStoredByIdentity)
{
    {
        // Two variables of one name (two instances of a clause's X).
        TermArena arena;
        const TermRef x1 = arena.makeVar(7, sym.intern("X"));
        const TermRef x2 = arena.makeVar(9, sym.intern("X"));
        EXPECT_EQ(stored(big(std::move(arena), x1, x2)), "big(X,_1).");
    }
    {
        // One nameless variable twice: named, so it stays shared.
        TermArena arena;
        const TermRef v = arena.makeVar(4);
        EXPECT_EQ(stored(big(std::move(arena), v, v)), "big(_0,_0).");
    }
    {
        // Nameless and once each: anonymous.
        TermArena arena;
        const TermRef a = arena.makeVar(4);
        const TermRef b = arena.makeVar(5);
        EXPECT_EQ(stored(big(std::move(arena), a, b)), "big(_,_).");
    }
    {
        // A fresh name avoids every name the clause holds.
        TermArena arena;
        const TermRef v = arena.makeVar(0);
        TermRef args[] = {v, v, arena.makeVar(1, sym.intern("_0"))};
        const TermRef head = arena.makeStruct(sym.intern("t"), args);
        EXPECT_EQ(stored(Clause(std::move(arena), head, {})),
                  "t(_1,_1,_0).");
    }
}

TEST_F(StoredFormTest, GoalsAreStoredAsTheyRead)
{
    // A goal or head that binds looser than the clause syntax allows
    // is parenthesized, and a last goal that is a conjunction is
    // split, as the reader splits a body.
    ParsedTerm t = reader.parseTerm(
        "f((a :- b), (x, y), (l ; r), [1|[2|T]], [3|[]])");
    const TermArena &a = t.arena;
    TermArena arena;
    const TermRef head = arena.import(a, a.arg(t.root, 3), 0);
    std::vector<TermRef> body = {arena.import(a, a.arg(t.root, 0), 0),
                                 arena.import(a, a.arg(t.root, 2), 0),
                                 arena.import(a, a.arg(t.root, 4), 0),
                                 arena.import(a, a.arg(t.root, 1), 0)};
    TermRef h = arena.makeStruct(sym.intern("h"), std::span(&head, 1));
    EXPECT_EQ(stored(Clause(std::move(arena), h, body)),
              "h([1,2|T]) :- (a:-b), (l;r), [3], x, y.");
}

TEST_F(StoredFormTest, ClausesNoTextCanCarryAreRejected)
{
    TermArena arena;
    const TermRef inf = arena.makeFloat(
        sym.internFloat(std::numeric_limits<double>::infinity()));
    const TermRef a = arena.makeAtom(sym.intern("a"));
    const TermRef open = arena.makeList(std::span(&a, 1),
                                        arena.makeAtom(sym.intern("foo")));
    // A list node as a tail: what the reader would splice.
    const TermRef nested = arena.makeList(
        std::span(&a, 1), arena.makeList(std::span(&a, 1), arena.makeVar(0)));
    for (const Clause &bad : {big(arena, inf, a), big(arena, open, a),
                              big(arena, nested, a)}) {
        EXPECT_THROW(storedClause(bad.view(), sym), FatalError);
        ClauseTable table;
        EXPECT_THROW(table.add(bad.view(), sym), FatalError);
    }
}

} // namespace
} // namespace clare::term
