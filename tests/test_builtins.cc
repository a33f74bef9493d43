/**
 * @file
 * Tests for the operator-precedence parser extensions and the solver
 * built-ins: arithmetic (is/2, comparisons), cut, negation as
 * failure, term inspection and structural equality.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "kb/arith.hh"
#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

namespace clare::kb {
namespace {

// ---------------------------------------------------------------------
// Operator parsing.
// ---------------------------------------------------------------------

class OperatorParse : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    term::TermWriter writer{sym};

    std::string
    canonical(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return writer.write(t.arena, t.root);
    }
};

TEST_F(OperatorParse, ArithmeticPrecedence)
{
    // The writer renders operators infix, preserving the parse.
    EXPECT_EQ(canonical("1 + 2 * 3"), "1+2*3");
    EXPECT_EQ(canonical("(1 + 2) * 3"), "(1+2)*3");
}

TEST_F(OperatorParse, LeftAssociativity)
{
    EXPECT_EQ(canonical("1 - 2 - 3"), "1-2-3");
    EXPECT_EQ(canonical("8 / 4 / 2"), "8/4/2");
    EXPECT_EQ(canonical("1 - (2 - 3)"), "1-(2-3)");
}

TEST_F(OperatorParse, IsAndComparisons)
{
    EXPECT_EQ(canonical("X is Y + 1"), "X is Y+1");
    EXPECT_EQ(canonical("X < Y"), "X<Y");
    EXPECT_EQ(canonical("X =< Y + Z"), "X=<Y+Z");
    EXPECT_EQ(canonical("A =:= B mod 2"), "A=:=B mod 2");
}

TEST_F(OperatorParse, XfxDoesNotChain)
{
    // "X = Y = Z" is a syntax error in standard Prolog (700 xfx).
    EXPECT_THROW(reader.parseTerm("X = Y = Z"), FatalError);
}

TEST_F(OperatorParse, MinusAfterTermIsInfix)
{
    EXPECT_EQ(canonical("X - 1"), "X-1");
    EXPECT_EQ(canonical("X-1"), "X-1");
    EXPECT_EQ(canonical("3-1"), "3-1");
    // Where a term is expected, '-3' is a literal; as an operand it
    // is parenthesized so the text reads back.
    EXPECT_EQ(canonical("f(-3)"), "f(-3)");
    EXPECT_EQ(canonical("1 + -3"), "1+(-3)");
}

TEST_F(OperatorParse, OperatorsNotInArgumentContext)
{
    // Inside argument lists operators still parse (precedence 999).
    EXPECT_EQ(canonical("f(1 + 2, X is 3)"), "f(1+2,X is 3)");
    EXPECT_EQ(canonical("[1 + 2, 3 * 4]"), "[1+2,3*4]");
}

TEST_F(OperatorParse, OperatorAtomsStillPlainAtoms)
{
    EXPECT_EQ(canonical("f(is, mod)"), "f(is,mod)");
    EXPECT_EQ(canonical("mod"), "mod");
}

TEST_F(OperatorParse, CutAndSemicolonAtoms)
{
    EXPECT_EQ(canonical("!"), "!");
    term::ParsedQuery q = reader.parseQuery("p(X), !, q(X).");
    EXPECT_EQ(q.goals.size(), 3u);
}

// ---------------------------------------------------------------------
// Arithmetic evaluation.
// ---------------------------------------------------------------------

class ArithTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    unify::Bindings bindings;

    Number
    eval(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return evalArith(sym, t.arena, t.root, bindings);
    }
};

TEST_F(ArithTest, IntegerOps)
{
    EXPECT_EQ(eval("1 + 2 * 3").intValue, 7);
    EXPECT_EQ(eval("10 - 4 - 3").intValue, 3);
    EXPECT_EQ(eval("7 / 2").intValue, 3);
    EXPECT_EQ(eval("7 mod 3").intValue, 1);
    EXPECT_EQ(eval("(0 - 7) mod 3").intValue, 2);   // flooring mod
    EXPECT_EQ(eval("abs(0 - 5)").intValue, 5);
    EXPECT_EQ(eval("min(3, 9)").intValue, 3);
    EXPECT_EQ(eval("max(3, 9)").intValue, 9);
}

TEST_F(ArithTest, FloatPromotion)
{
    Number n = eval("1 + 2.5");
    EXPECT_TRUE(n.isFloat);
    EXPECT_DOUBLE_EQ(n.floatValue, 3.5);
    EXPECT_DOUBLE_EQ(eval("7.0 / 2").floatValue, 3.5);
}

TEST_F(ArithTest, Errors)
{
    EXPECT_THROW(eval("1 / 0"), FatalError);
    EXPECT_THROW(eval("1 mod 0"), FatalError);
    EXPECT_THROW(eval("X + 1"), FatalError);        // instantiation
    EXPECT_THROW(eval("foo + 1"), FatalError);      // type
    EXPECT_THROW(eval("1.5 mod 2"), FatalError);
}

TEST_F(ArithTest, Comparisons)
{
    EXPECT_LT(compareNumbers(Number::ofInt(1), Number::ofInt(2)), 0);
    EXPECT_EQ(compareNumbers(Number::ofInt(2), Number::ofFloat(2.0)), 0);
    EXPECT_GT(compareNumbers(Number::ofFloat(2.5), Number::ofInt(2)), 0);
}

// ---------------------------------------------------------------------
// Solver built-ins.
// ---------------------------------------------------------------------

class BuiltinSolver : public ::testing::Test
{
  protected:
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<Solver> solver;

    void
    load(const std::string &text)
    {
        kb = std::make_unique<KnowledgeBase>();
        kb->consult(text);
        solver = std::make_unique<Solver>(*kb);
    }

    std::vector<std::string>
    values(const std::string &query, const std::string &var)
    {
        std::vector<std::string> out;
        for (const auto &s : solver->solve(query))
            out.push_back(s.bindings.at(var));
        return out;
    }
};

TEST_F(BuiltinSolver, IsEvaluates)
{
    load("double(X, Y) :- Y is X * 2.\n");
    EXPECT_EQ(values("double(21, D)", "D"),
              (std::vector<std::string>{"42"}));
    EXPECT_EQ(values("X is 1 + 2.5", "X"),
              (std::vector<std::string>{"3.5"}));
}

TEST_F(BuiltinSolver, IsChecksWhenBound)
{
    load("p(a).\n");
    EXPECT_EQ(solver->solve("4 is 2 + 2").size(), 1u);
    EXPECT_TRUE(solver->solve("5 is 2 + 2").empty());
}

TEST_F(BuiltinSolver, ComparisonsFilter)
{
    load("n(1).\nn(5).\nn(9).\n");
    EXPECT_EQ(values("n(X), X > 3", "X"),
              (std::vector<std::string>{"5", "9"}));
    EXPECT_EQ(values("n(X), X =< 5", "X"),
              (std::vector<std::string>{"1", "5"}));
    EXPECT_EQ(values("n(X), X =:= 5", "X"),
              (std::vector<std::string>{"5"}));
}

TEST_F(BuiltinSolver, NotUnifiable)
{
    load("p(a).\np(b).\n");
    EXPECT_EQ(values("p(X), X \\= a", "X"),
              (std::vector<std::string>{"b"}));
}

TEST_F(BuiltinSolver, StructuralEquality)
{
    load("p(a).\n");
    EXPECT_EQ(solver->solve("f(X) == f(X)").size(), 1u);
    EXPECT_TRUE(solver->solve("f(X) == f(Y)").empty());
    EXPECT_EQ(solver->solve("f(X) \\== f(Y)").size(), 1u);
    // == does not bind.
    EXPECT_TRUE(solver->solve("X == a").empty());
}

TEST_F(BuiltinSolver, CutCommitsToFirstClause)
{
    load("max(X, Y, X) :- X >= Y, !.\n"
         "max(_, Y, Y).\n");
    EXPECT_EQ(values("max(7, 3, M)", "M"),
              (std::vector<std::string>{"7"}));
    EXPECT_EQ(values("max(2, 9, M)", "M"),
              (std::vector<std::string>{"9"}));
}

TEST_F(BuiltinSolver, CutPrunesSiblingAlternatives)
{
    load("q(1).\nq(2).\nq(3).\n"
         "first(X) :- q(X), !.\n");
    EXPECT_EQ(values("first(X)", "X"),
              (std::vector<std::string>{"1"}));
}

TEST_F(BuiltinSolver, CutIsLocalToTheClause)
{
    load("a(1).\na(2).\n"
         "b(X) :- a(X), !.\n"
         "c(X, Y) :- a(X), b(Y).\n");
    // The cut inside b/1 does not prune a/1's alternatives in c/2.
    EXPECT_EQ(values("c(X, Y)", "X"),
              (std::vector<std::string>{"1", "2"}));
}

TEST_F(BuiltinSolver, NegationAsFailure)
{
    load("p(a).\np(b).\nforbidden(a).\n"
         "allowed(X) :- p(X), \\+ forbidden(X).\n");
    EXPECT_EQ(values("allowed(X)", "X"),
              (std::vector<std::string>{"b"}));
    // 'not' alias.
    EXPECT_EQ(values("p(X), not(forbidden(X))", "X"),
              (std::vector<std::string>{"b"}));
}

TEST_F(BuiltinSolver, NegationDoesNotBind)
{
    load("p(a).\n");
    auto solutions = solver->solve("\\+ p(b), p(X)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("X"), "a");
}

TEST_F(BuiltinSolver, CallMetaPredicate)
{
    load("p(a).\np(b).\n");
    EXPECT_EQ(values("G = p(X), call(G)", "X"),
              (std::vector<std::string>{"a", "b"}));
}

TEST_F(BuiltinSolver, TypeChecks)
{
    load("p(a).\n");
    EXPECT_EQ(solver->solve("atom(foo)").size(), 1u);
    EXPECT_TRUE(solver->solve("atom(1)").empty());
    EXPECT_EQ(solver->solve("integer(3)").size(), 1u);
    EXPECT_EQ(solver->solve("float(3.5)").size(), 1u);
    EXPECT_EQ(solver->solve("number(3)").size(), 1u);
    EXPECT_EQ(solver->solve("var(X)").size(), 1u);
    EXPECT_TRUE(solver->solve("X = 1, var(X)").empty());
    EXPECT_EQ(solver->solve("X = 1, nonvar(X)").size(), 1u);
    EXPECT_EQ(solver->solve("compound(f(a))").size(), 1u);
    EXPECT_EQ(solver->solve("compound([a])").size(), 1u);
    EXPECT_EQ(solver->solve("atomic(foo)").size(), 1u);
    EXPECT_TRUE(solver->solve("atomic(f(a))").empty());
}

TEST_F(BuiltinSolver, RecursiveArithmetic)
{
    load("fact(0, 1).\n"
         "fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.\n");
    EXPECT_EQ(values("fact(10, F)", "F"),
              (std::vector<std::string>{"3628800"}));
}

TEST_F(BuiltinSolver, ListLengthWithArithmetic)
{
    load("len([], 0).\n"
         "len([_ | T], N) :- len(T, M), N is M + 1.\n");
    EXPECT_EQ(values("len([a, b, c, d], N)", "N"),
              (std::vector<std::string>{"4"}));
}

TEST_F(BuiltinSolver, FindallCollectsAllSolutions)
{
    load("color(red).\ncolor(green).\ncolor(blue).\n");
    auto solutions = solver->solve("findall(C, color(C), L)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("L"), "[red,green,blue]");
}

TEST_F(BuiltinSolver, FindallEmptyGoalGivesNil)
{
    load("color(red).\n");
    auto solutions = solver->solve("findall(C, color(C), L), C = nope");
    // findall does not bind C outside; the empty case gives [].
    auto none = solver->solve("findall(X, fail, L)");
    ASSERT_EQ(none.size(), 1u);
    EXPECT_EQ(none[0].bindings.at("L"), "[]");
    ASSERT_EQ(solutions.size(), 1u);
}

TEST_F(BuiltinSolver, FindallTemplatesAreSnapshots)
{
    load("pair(1, a).\npair(2, b).\n");
    auto solutions = solver->solve("findall(f(X, Y), pair(X, Y), L)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("L"), "[f(1,a),f(2,b)]");
}

TEST_F(BuiltinSolver, BetweenEnumerates)
{
    load("p(a).\n");
    EXPECT_EQ(values("between(3, 6, X)", "X"),
              (std::vector<std::string>{"3", "4", "5", "6"}));
    EXPECT_TRUE(solver->solve("between(4, 2, X)").empty());
}

TEST_F(BuiltinSolver, BetweenChecksBoundValue)
{
    load("p(a).\n");
    EXPECT_EQ(solver->solve("between(1, 5, 3)").size(), 1u);
    EXPECT_TRUE(solver->solve("between(1, 5, 9)").empty());
    EXPECT_TRUE(solver->solve("between(1, 5, foo)").empty());
}

TEST_F(BuiltinSolver, BetweenWithArithmeticBounds)
{
    load("p(a).\n");
    EXPECT_EQ(values("between(1 + 1, 2 * 2, X)", "X"),
              (std::vector<std::string>{"2", "3", "4"}));
}

TEST_F(BuiltinSolver, AssertzAddsFacts)
{
    load("seed(1).\n");
    EXPECT_EQ(solver->solve("assertz(seed(2)), seed(2)").size(), 1u);
    EXPECT_EQ(values("seed(X)", "X"),
              (std::vector<std::string>{"1", "2"}));
}

TEST_F(BuiltinSolver, AssertaPutsClauseFirst)
{
    load("seed(1).\n");
    ASSERT_EQ(solver->solve("asserta(seed(0))").size(), 1u);
    EXPECT_EQ(values("seed(X)", "X"),
              (std::vector<std::string>{"0", "1"}));
}

TEST_F(BuiltinSolver, AssertRules)
{
    load("base(5).\n");
    ASSERT_EQ(solver->solve(
        "assertz((doubled(Y) :- base(X), Y is X * 2))").size(), 1u);
    EXPECT_EQ(values("doubled(D)", "D"),
              (std::vector<std::string>{"10"}));
}

TEST_F(BuiltinSolver, AssertedClausesSnapshotBindings)
{
    load("p(a).\n");
    ASSERT_EQ(solver->solve("X = canned, assertz(saved(X))").size(), 1u);
    EXPECT_EQ(values("saved(V)", "V"),
              (std::vector<std::string>{"canned"}));
}

TEST_F(BuiltinSolver, RetractRemovesFirstMatch)
{
    load("item(a).\nitem(b).\nitem(a).\n");
    ASSERT_EQ(solver->solve("retract(item(a))").size(), 1u);
    EXPECT_EQ(values("item(X)", "X"),
              (std::vector<std::string>{"b", "a"}));
    // Retracting a non-existent fact fails.
    EXPECT_TRUE(solver->solve("retract(item(zzz))").empty());
}

TEST_F(BuiltinSolver, RetractRuleWithBodyPattern)
{
    load("r(1).\nq(X) :- r(X).\nq(9).\n");
    // The bare-head pattern skips the rule and removes the fact.
    ASSERT_EQ(solver->solve("retract(q(9))").size(), 1u);
    EXPECT_EQ(values("q(X)", "X"), (std::vector<std::string>{"1"}));
    // The rule needs the ':-' pattern.
    ASSERT_EQ(solver->solve("retract((q(A) :- r(A)))").size(), 1u);
    EXPECT_TRUE(solver->solve("q(X)").empty());
}

TEST_F(BuiltinSolver, DynamicUpdateOfLargePredicateRejected)
{
    KbConfig config;
    config.largeThreshold = 2;
    kb = std::make_unique<KnowledgeBase>(config);
    kb->consult("big(a).\nbig(b).\nbig(c).\n");
    kb->compile();
    solver = std::make_unique<Solver>(*kb);
    EXPECT_THROW(solver->solve("assertz(big(d))"), FatalError);
    EXPECT_THROW(solver->solve("retract(big(a))"), FatalError);
    // Small predicates stay dynamic after compilation.
    EXPECT_EQ(solver->solve("assertz(note(1)), note(N)").size(), 1u);
}

TEST_F(BuiltinSolver, AssertedVariablesKeepTheirIdentity)
{
    // big/2 is store-resident, so an assertz goes through the live
    // store: the stored clause must hold the asserted variables as
    // they were, two distinct ones of one source name kept apart and
    // one nameless shared one kept shared.
    const std::string wal = ::testing::TempDir() + "asserted_vars.wal";
    auto open = [&] {
        solver.reset();
        kb.reset();
        std::remove(wal.c_str());
        KbConfig config;
        config.largeThreshold = 2;
        kb = std::make_unique<KnowledgeBase>(config);
        kb->consult("same(X).\n"
                    "pairup(P, Q) :- same(P), same(Q).\n"
                    "big(3, 4).\n"
                    "big(5, 5).\n");
        kb->compile();
        kb->enableLiveUpdates(wal);
        solver = std::make_unique<Solver>(*kb);
    };

    // A and B are two instances of same/1's X.
    open();
    ASSERT_EQ(solver->solve("pairup(A, B), assertz(big(A, B))").size(), 1u);
    EXPECT_EQ(solver->solve("big(1, 2)").size(), 1u);

    open();
    ASSERT_EQ(solver->solve("A = _, assertz(big(A, A))").size(), 1u);
    EXPECT_EQ(solver->solve("big(3, 4)").size(), 1u);
    EXPECT_EQ(solver->solve("big(5, 5)").size(), 2u);
    solver.reset();
    kb.reset();
    std::remove(wal.c_str());
}

TEST_F(BuiltinSolver, DisjunctionBranches)
{
    load("l(1).\nr(2).\n");
    EXPECT_EQ(values("(l(X) ; r(X))", "X"),
              (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(values("(fail ; r(X))", "X"),
              (std::vector<std::string>{"2"}));
    EXPECT_EQ(solver->solve("(l(_) ; r(_))").size(), 2u);
}

TEST_F(BuiltinSolver, ConjunctionControlTerm)
{
    load("a(1).\nb(2).\n");
    // A parenthesized conjunction inside a disjunction branch.
    EXPECT_EQ(values("(a(X), b(Y) ; fail)", "X"),
              (std::vector<std::string>{"1"}));
    // call/1 on a conjunction term.
    EXPECT_EQ(values("G = (a(X), b(_)), call(G)", "X"),
              (std::vector<std::string>{"1"}));
}

TEST_F(BuiltinSolver, ParenthesizedBodyRoundTrip)
{
    load("choice(X) :- (X = left ; X = right).\n");
    EXPECT_EQ(values("choice(C)", "C"),
              (std::vector<std::string>{"left", "right"}));
}

class LibraryTest : public BuiltinSolver
{
  protected:
    void
    SetUp() override
    {
        kb = std::make_unique<KnowledgeBase>();
        kb->loadLibrary();
        solver = std::make_unique<Solver>(*kb);
    }
};

TEST_F(LibraryTest, Append)
{
    EXPECT_EQ(values("append([a, b], [c], L)", "L"),
              (std::vector<std::string>{"[a,b,c]"}));
    EXPECT_EQ(values("append([], [x], L)", "L"),
              (std::vector<std::string>{"[x]"}));
    // Backwards mode: enumerate splits.
    auto splits = solver->solve("append(A, B, [1, 2])");
    EXPECT_EQ(splits.size(), 3u);
}

TEST_F(LibraryTest, MemberAndSelect)
{
    EXPECT_EQ(values("member(X, [p, q, r])", "X"),
              (std::vector<std::string>{"p", "q", "r"}));
    EXPECT_TRUE(solver->solve("member(z, [p, q])").empty());
    EXPECT_EQ(values("select(q, [p, q, r], L)", "L"),
              (std::vector<std::string>{"[p,r]"}));
}

TEST_F(LibraryTest, LengthAndReverse)
{
    EXPECT_EQ(values("length([a, b, c], N)", "N"),
              (std::vector<std::string>{"3"}));
    EXPECT_EQ(values("reverse([1, 2, 3], R)", "R"),
              (std::vector<std::string>{"[3,2,1]"}));
    EXPECT_EQ(values("last([x, y, z], L)", "L"),
              (std::vector<std::string>{"z"}));
}

TEST_F(LibraryTest, NthZero)
{
    EXPECT_EQ(values("nth0(1, [a, b, c], X)", "X"),
              (std::vector<std::string>{"b"}));
    EXPECT_EQ(values("nth0(N, [a, b], b)", "N"),
              (std::vector<std::string>{"1"}));
}

TEST_F(LibraryTest, NumericListFolds)
{
    EXPECT_EQ(values("sum_list([1, 2, 3, 4], S)", "S"),
              (std::vector<std::string>{"10"}));
    EXPECT_EQ(values("max_list([3, 9, 5], M)", "M"),
              (std::vector<std::string>{"9"}));
    EXPECT_EQ(values("min_list([3, 9, 5], M)", "M"),
              (std::vector<std::string>{"3"}));
}

TEST_F(LibraryTest, ComposesWithFindall)
{
    kb->consult("edge(a, b).\nedge(a, c).\nedge(b, d).\n");
    auto solutions = solver->solve(
        "findall(Y, edge(a, Y), L), length(L, N)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("N"), "2");
}

TEST_F(BuiltinSolver, FibonacciWithCut)
{
    // The solver is continuation-passing: C++ stack depth grows with
    // the proof size, so exponential proofs are kept modest here
    // (sanitizer builds have fat frames).
    load("fib(0, 0) :- !.\n"
         "fib(1, 1) :- !.\n"
         "fib(N, F) :- A is N - 1, B is N - 2, fib(A, X), fib(B, Y), "
         "F is X + Y.\n");
    EXPECT_EQ(values("fib(12, F)", "F"),
              (std::vector<std::string>{"144"}));
}

} // namespace
} // namespace clare::kb
