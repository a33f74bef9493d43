/**
 * @file
 * Full-unification tests: bindings/trail, atoms through nested
 * structures and partial lists, occurs check, solution rendering, and
 * the reusable head unifier against fresh single-use ones.
 */

#include <gtest/gtest.h>

#include <vector>

#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "unify/bindings.hh"
#include "unify/oracle.hh"
#include "unify/unify.hh"

namespace clare::unify {
namespace {

class UnifyTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    term::TermWriter writer{sym};

    /**
     * Parse two terms into one arena (shared variable namespace: the
     * same name is the same variable) and unify them.
     */
    bool
    unifies(const std::string &a, const std::string &b,
            bool occurs_check = false)
    {
        term::ParsedTerm t = reader.parseTerm("pair(" + a + "," + b
                                              + ")");
        arena_ = std::move(t.arena);
        bindings_ = Bindings();
        UnifyOptions options;
        options.occursCheck = occurs_check;
        return unifyTerms(arena_, arena_.arg(t.root, 0),
                          arena_.arg(t.root, 1), bindings_, options);
    }

    term::TermArena arena_;
    Bindings bindings_;
};

TEST_F(UnifyTest, IdenticalAtoms)
{
    EXPECT_TRUE(unifies("a", "a"));
    EXPECT_FALSE(unifies("a", "b"));
}

TEST_F(UnifyTest, Numbers)
{
    EXPECT_TRUE(unifies("42", "42"));
    EXPECT_FALSE(unifies("42", "43"));
    EXPECT_TRUE(unifies("2.5", "2.5"));
    EXPECT_FALSE(unifies("2.5", "2.25"));
    // An integer and a float with the same value do not unify.
    EXPECT_FALSE(unifies("2", "2.0"));
}

TEST_F(UnifyTest, KindMismatches)
{
    EXPECT_FALSE(unifies("a", "f(a)"));
    EXPECT_FALSE(unifies("f(a)", "[a]"));
    EXPECT_FALSE(unifies("[]", "[a]"));
    EXPECT_FALSE(unifies("1", "a"));
}

TEST_F(UnifyTest, VariableBindsEitherSide)
{
    EXPECT_TRUE(unifies("X", "foo"));
    EXPECT_TRUE(unifies("foo", "X"));
    EXPECT_TRUE(unifies("X", "Y"));
    EXPECT_TRUE(unifies("X", "X"));
}

TEST_F(UnifyTest, StructuresRecursively)
{
    EXPECT_TRUE(unifies("f(X, b)", "f(a, Y)"));
    EXPECT_FALSE(unifies("f(a, b)", "f(a, c)"));
    EXPECT_FALSE(unifies("f(a)", "g(a)"));
    EXPECT_FALSE(unifies("f(a)", "f(a, b)"));
}

TEST_F(UnifyTest, SharedVariableConsistency)
{
    EXPECT_TRUE(unifies("f(X, X)", "f(a, a)"));
    EXPECT_FALSE(unifies("f(X, X)", "f(a, b)"));
}

TEST_F(UnifyTest, CrossBindingChain)
{
    // X = A, then A's second occurrence must equal b, forcing X = b;
    // the third position then fails on c.
    EXPECT_TRUE(unifies("f(X, a, b)", "f(A, a, A)"));
    EXPECT_FALSE(unifies("f(X, X, b)", "f(c, A, A)"));
    EXPECT_TRUE(unifies("f(X, X, b)", "f(b, A, A)"));
}

TEST_F(UnifyTest, DeepStructures)
{
    EXPECT_TRUE(unifies("f(g(h(X)), X)", "f(g(h(a)), a)"));
    EXPECT_FALSE(unifies("f(g(h(X)), X)", "f(g(h(a)), b)"));
}

TEST_F(UnifyTest, ProperLists)
{
    EXPECT_TRUE(unifies("[a, b, c]", "[a, b, c]"));
    EXPECT_FALSE(unifies("[a, b]", "[a, b, c]"));
    EXPECT_TRUE(unifies("[X, b]", "[a, Y]"));
}

TEST_F(UnifyTest, PartialListAgainstProper)
{
    EXPECT_TRUE(unifies("[a | T]", "[a, b, c]"));
    EXPECT_FALSE(unifies("[a, b, c | T]", "[a, b]"));
    EXPECT_TRUE(unifies("[a, b | T]", "[a, b]"));  // T = []
}

TEST_F(UnifyTest, PartialListsBothSides)
{
    EXPECT_TRUE(unifies("[a | T1]", "[a, b | T2]"));
    EXPECT_FALSE(unifies("[a | T1]", "[b | T2]"));
}

TEST_F(UnifyTest, BoundTailIsFollowed)
{
    // T is bound to [b] by the first pair element, making the second
    // comparison [a,b] vs [a,b].
    EXPECT_TRUE(unifies("g(T, [a | T])", "g([b], [a, b])"));
    EXPECT_FALSE(unifies("g(T, [a | T])", "g([b], [a, c])"));
}

TEST_F(UnifyTest, ListElementStructures)
{
    EXPECT_TRUE(unifies("[f(X)]", "[f(a)]"));
    EXPECT_FALSE(unifies("[f(a)]", "[g(a)]"));
}

TEST_F(UnifyTest, OccursCheckRejectsCyclicBinding)
{
    EXPECT_TRUE(unifies("X", "f(X)"));                  // off: allowed
    EXPECT_FALSE(unifies("X", "f(X)", true));           // on: rejected
    EXPECT_FALSE(unifies("X", "[a, X]", true));
    EXPECT_TRUE(unifies("X", "f(Y)", true));
}

TEST_F(UnifyTest, FailureRollsBackBindings)
{
    // After a failed unification no bindings remain.
    EXPECT_FALSE(unifies("f(X, a)", "f(b, c)"));
    EXPECT_EQ(bindings_.boundCount(), 0u);
}

TEST(Bindings, TrailUndo)
{
    term::TermArena arena;
    term::TermRef a = arena.makeAtom(3);
    arena.makeVar(0, 1);
    Bindings b;
    b.grow(2);
    TrailMark mark = b.mark();
    b.bind(0, a);
    EXPECT_TRUE(b.isBound(0));
    b.undo(mark);
    EXPECT_FALSE(b.isBound(0));
}

TEST(Bindings, DerefFollowsChains)
{
    term::TermArena arena;
    term::TermRef v0 = arena.makeVar(0, 1);
    term::TermRef v1 = arena.makeVar(1, 2);
    term::TermRef a = arena.makeAtom(9);
    Bindings b;
    b.grow(2);
    b.bind(0, v1);
    b.bind(1, a);
    EXPECT_EQ(b.deref(arena, v0), a);
}

TEST(ResolveTerm, AppliesBindings)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);

    term::ParsedTerm t = reader.parseTerm("pair(f(X, [a|Y]), g(X, Y))");
    term::TermArena arena = std::move(t.arena);
    Bindings b;
    // Bind X = 42, Y = [b].
    term::VarId x = t.varNames.at("X");
    term::VarId y = t.varNames.at("Y");
    b.grow(arena.varCeiling());
    b.bind(x, arena.makeInt(42));
    term::TermRef belem = arena.makeAtom(sym.intern("b"));
    b.bind(y, arena.makeList(std::span(&belem, 1)));

    term::TermArena out;
    term::TermRef resolved = resolveTerm(arena, arena.arg(t.root, 0), b,
                                         out);
    EXPECT_EQ(writer.write(out, resolved), "f(42,[a,b])");
}

TEST(ResolveTerm, UnboundVariablesSurvive)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    term::ParsedTerm t = reader.parseTerm("f(X)");
    Bindings b;
    term::TermArena out;
    term::TermRef r = resolveTerm(t.arena, t.root, b, out);
    EXPECT_EQ(writer.write(out, r), "f(X)");
}

TEST(HeadUnifier, ReuseAgreesWithFreshUnifierPerCandidate)
{
    // One HeadUnifier imports the goal once and rewinds its scratch
    // to just past it for every candidate; each verdict must equal a
    // fresh wouldUnify().  The candidates bind the goal's variables
    // (to atoms, structures, each other and the head's own variables)
    // and fail part-way, so a leftover node or binding from one
    // candidate would change a later verdict.  Two passes in opposite
    // orders put every candidate after every other.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    std::vector<term::Clause> heads;
    for (const char *text :
         {"p(a, a).", "p(a, b).", "p(b, b).", "p(f(a), f(a)).",
          "p(Y, Y).", "p(Y, Z).", "p(a, f(a)).", "p(b, f(a)).",
          "p(Y, f(Y)).", "p(g(Z), f(g(Z))).", "p(f(Y), f(f(Y))).",
          "p([1, 2|T], [1, 2, 3]).", "p(f(b), Y).", "p(Y, f(b)).",
          "p(X, f(X)).", "p(h(Y, Y), h(a, b))."})
        heads.push_back(reader.parseClause(text));

    for (const char *goal_text : {"p(X, X)", "p(X, f(X))"}) {
        term::ParsedTerm goal = reader.parseTerm(goal_text);
        HeadUnifier reused(goal.arena, goal.root);
        std::size_t unified = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t k = 0; k < heads.size(); ++k) {
                const term::Clause &clause =
                    heads[pass == 0 ? k : heads.size() - 1 - k];
                const bool fresh =
                    wouldUnify(goal.arena, goal.root, clause);
                EXPECT_EQ(reused.unifies(clause.arena(), clause.head()),
                          fresh)
                    << goal_text << " against clause "
                    << (pass == 0 ? k : heads.size() - 1 - k)
                    << " in pass " << pass;
                unified += fresh ? 1 : 0;
            }
        }
        // Both goals accept some candidates and reject others.
        EXPECT_GT(unified, 0u) << goal_text;
        EXPECT_LT(unified, 2 * heads.size()) << goal_text;
    }
}

} // namespace
} // namespace clare::unify
