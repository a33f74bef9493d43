/**
 * @file
 * Knowledge base and resolution tests: consult, clause-order
 * preservation, small/large classification, mixed relations, SLD
 * solutions (with and without CLARE retrieval) and built-ins.
 */

#include <gtest/gtest.h>

#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "support/logging.hh"
#include "workload/kb_generator.hh"

namespace clare::kb {
namespace {

TEST(KnowledgeBaseTest, ConsultPreservesOrder)
{
    KnowledgeBase kb;
    kb.consult("p(b).\np(a).\np(c).\n");
    EXPECT_EQ(kb.clauseCount(), 3u);
    term::PredicateId p{kb.symbols().lookup("p"), 1};
    EXPECT_EQ(kb.program().clausesOf(p),
              (std::vector<std::size_t>{0, 1, 2}));
}

TEST(KnowledgeBaseTest, MixedRelationsAllowed)
{
    KnowledgeBase kb;
    kb.consult("p(a).\np(X) :- p(a).\np(b).\n");
    term::PredicateId p{kb.symbols().lookup("p"), 1};
    EXPECT_TRUE(kb.program().isMixedRelation(p));
}

TEST(KnowledgeBaseTest, CompileClassifiesBySize)
{
    KbConfig config;
    config.largeThreshold = 4;
    KnowledgeBase kb(config);
    kb.consult("small(a).\nsmall(b).\n");
    for (int i = 0; i < 10; ++i)
        kb.consult("big(k" + std::to_string(i) + ").\n");
    kb.compile();
    EXPECT_TRUE(kb.isLarge(
        term::PredicateId{kb.symbols().lookup("big"), 1}));
    EXPECT_FALSE(kb.isLarge(
        term::PredicateId{kb.symbols().lookup("small"), 1}));
    EXPECT_TRUE(kb.store().has(
        term::PredicateId{kb.symbols().lookup("big"), 1}));
}

TEST(KnowledgeBaseTest, ConsultAfterCompileRejected)
{
    KnowledgeBase kb;
    kb.consult("p(a).\n");
    kb.compile();
    EXPECT_THROW(kb.consult("p(b).\n"), FatalError);
}

TEST(KnowledgeBaseTest, ClausesForSmallPredicate)
{
    KnowledgeBase kb;
    kb.consult("p(a).\np(b).\n");
    term::SymbolTable &sym = kb.symbols();
    term::TermArena arena;
    term::TermRef arg = arena.makeVar(0, sym.intern("X"));
    term::TermRef goal = arena.makeStruct(sym.intern("p"),
                                          std::span(&arg, 1));
    RetrievedClauses r = kb.clausesFor(arena, goal);
    EXPECT_EQ(r.clauses.size(), 2u);
    EXPECT_FALSE(r.retrieval.has_value());
}

TEST(KnowledgeBaseTest, ClausesForLargePredicateUsesClare)
{
    KbConfig config;
    config.largeThreshold = 2;
    KnowledgeBase kb(config);
    kb.consult("p(a).\np(b).\np(a).\n");
    kb.compile();
    term::SymbolTable &sym = kb.symbols();
    term::TermArena arena;
    term::TermRef arg = arena.makeAtom(sym.intern("a"));
    term::TermRef goal = arena.makeStruct(sym.intern("p"),
                                          std::span(&arg, 1));
    RetrievedClauses r = kb.clausesFor(arena, goal);
    ASSERT_TRUE(r.retrieval.has_value());
    EXPECT_EQ(r.retrieval->answers,
              (std::vector<std::uint32_t>{0, 2}));
}

class SolverTest : public ::testing::Test
{
  protected:
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<Solver> solver;

    void
    load(const std::string &text, bool compile = false,
         std::size_t threshold = 256)
    {
        KbConfig config;
        config.largeThreshold = threshold;
        kb = std::make_unique<KnowledgeBase>(config);
        kb->consult(text);
        if (compile)
            kb->compile();
        solver = std::make_unique<Solver>(*kb);
    }
};

TEST_F(SolverTest, GroundFactQueries)
{
    load("likes(mary, wine).\nlikes(john, beer).\n");
    EXPECT_EQ(solver->solve("likes(mary, wine)").size(), 1u);
    EXPECT_TRUE(solver->solve("likes(mary, beer)").empty());
}

TEST_F(SolverTest, VariableBindingReported)
{
    load("likes(mary, wine).\nlikes(john, beer).\n");
    auto solutions = solver->solve("likes(john, X)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("X"), "beer");
}

TEST_F(SolverTest, SolutionsInClauseOrder)
{
    load("p(c).\np(a).\np(b).\n");
    auto solutions = solver->solve("p(X)");
    ASSERT_EQ(solutions.size(), 3u);
    EXPECT_EQ(solutions[0].bindings.at("X"), "c");
    EXPECT_EQ(solutions[1].bindings.at("X"), "a");
    EXPECT_EQ(solutions[2].bindings.at("X"), "b");
}

TEST_F(SolverTest, RulesAndConjunction)
{
    load("parent(tom, bob).\n"
         "parent(bob, ann).\n"
         "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).\n");
    auto solutions = solver->solve("grandparent(tom, Who)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("Who"), "ann");
}

TEST_F(SolverTest, RecursionWithBacktracking)
{
    load("parent(a, b).\nparent(b, c).\nparent(c, d).\n"
         "ancestor(X, Y) :- parent(X, Y).\n"
         "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n");
    auto solutions = solver->solve("ancestor(a, W)");
    ASSERT_EQ(solutions.size(), 3u);
    EXPECT_EQ(solutions[0].bindings.at("W"), "b");
    EXPECT_EQ(solutions[1].bindings.at("W"), "c");
    EXPECT_EQ(solutions[2].bindings.at("W"), "d");
}

TEST_F(SolverTest, BuiltinsTrueFailEquals)
{
    load("p(a).\n");
    EXPECT_EQ(solver->solve("true").size(), 1u);
    EXPECT_TRUE(solver->solve("fail").empty());
    auto eq = solver->solve("X = f(a, Y), Y = b");
    ASSERT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq[0].bindings.at("X"), "f(a,b)");
}

TEST_F(SolverTest, SharedVariablesInQuery)
{
    load("married_couple(john, mary).\n"
         "married_couple(pat, pat).\n"
         "married_couple(X, X).\n");
    auto solutions = solver->solve("married_couple(S, S)");
    ASSERT_EQ(solutions.size(), 2u);
    EXPECT_EQ(solutions[0].bindings.at("S"), "pat");
}

TEST_F(SolverTest, MaxSolutionsLimit)
{
    load("p(a).\np(b).\np(c).\n");
    SolveOptions options;
    options.maxSolutions = 2;
    EXPECT_EQ(solver->solve("p(X)", options).size(), 2u);
}

TEST_F(SolverTest, StepBudgetStopsRunaway)
{
    // The stop is final: findall/3 and \+ must not take a sub-proof
    // that ran out of steps for "no solutions" and answer the query.
    load("loop(X) :- loop(X).\nloop(done).\n");
    SolveOptions options;
    options.maxSteps = 500;
    for (const char *query : {"loop(Q)", "findall(Q, loop(Q), L)",
                              "\\+ loop(done)", "\\+ loop(a) ; true"}) {
        EXPECT_TRUE(solver->solve(query, options).empty()) << query;
        EXPECT_TRUE(solver->stats().budgetExhausted) << query;
    }
}

TEST_F(SolverTest, AnswerKeepsSharedUnboundVariables)
{
    // The bindings of one solution are one answer: an unbound
    // variable they share is written under one name in all of them,
    // while a variable that occurs once stays '_'.
    load("p(a).\n");
    auto solutions = solver->solve("A = _, X = f(A, A, _)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("A"), "_1");
    EXPECT_EQ(solutions[0].bindings.at("X"), "f(_1,_1,_)");

    // Names go by first occurrence, across the bindings in order.
    solutions = solver->solve("A = _, B = _, X = g(B, A, B, _, A)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("A"), "_1");
    EXPECT_EQ(solutions[0].bindings.at("B"), "_2");
    EXPECT_EQ(solutions[0].bindings.at("X"), "g(_2,_1,_2,_,_1)");

    // A ground answer names nothing.
    solutions = solver->solve("X = f(a, b)");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("X"), "f(a,b)");
}

TEST_F(SolverTest, ListsInSolutions)
{
    load("route(a, [a, b, c]).\n");
    auto solutions = solver->solve("route(a, [H | T])");
    ASSERT_EQ(solutions.size(), 1u);
    EXPECT_EQ(solutions[0].bindings.at("H"), "a");
    EXPECT_EQ(solutions[0].bindings.at("T"), "[b,c]");
}

TEST_F(SolverTest, LargePredicateResolvesThroughClare)
{
    std::string text;
    for (int i = 0; i < 40; ++i)
        text += "fact(k" + std::to_string(i) + ", v" +
            std::to_string(i % 5) + ").\n";
    text += "wanted(X) :- fact(X, v3).\n";
    load(text, /*compile=*/true, /*threshold=*/10);

    auto solutions = solver->solve("wanted(W)");
    EXPECT_EQ(solutions.size(), 8u);
    EXPECT_GT(solver->stats().retrievals, 0u);
    EXPECT_GT(solver->stats().retrievalTime, 0u);
}

TEST_F(SolverTest, ClareAndInMemoryAgree)
{
    std::string text;
    for (int i = 0; i < 30; ++i)
        text += "d(x" + std::to_string(i % 7) + ", y" +
            std::to_string(i % 3) + ").\n";

    load(text, /*compile=*/false);
    auto in_memory = solver->solve("d(x3, B)");

    load(text, /*compile=*/true, /*threshold=*/5);
    auto via_clare = solver->solve("d(x3, B)");

    ASSERT_EQ(in_memory.size(), via_clare.size());
    for (std::size_t i = 0; i < in_memory.size(); ++i)
        EXPECT_EQ(in_memory[i].bindings.at("B"),
                  via_clare[i].bindings.at("B"));
}

TEST_F(SolverTest, ForcedRetrievalModesAgree)
{
    std::string text;
    for (int i = 0; i < 25; ++i)
        text += "m(a" + std::to_string(i % 6) + ", b" +
            std::to_string(i % 4) + ").\n";
    load(text, /*compile=*/true, /*threshold=*/5);

    std::vector<std::string> baseline;
    for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                 crs::SearchMode::Fs1Only,
                                 crs::SearchMode::Fs2Only,
                                 crs::SearchMode::TwoStage}) {
        SolveOptions options;
        options.forceMode = mode;
        auto solutions = solver->solve("m(a2, Y)", options);
        std::vector<std::string> values;
        for (const auto &s : solutions)
            values.push_back(s.bindings.at("Y"));
        if (baseline.empty())
            baseline = values;
        else
            EXPECT_EQ(values, baseline)
                << crs::searchModeName(mode);
        EXPECT_FALSE(values.empty());
    }
}

} // namespace
} // namespace clare::kb
