/**
 * @file
 * CRS tests: predicate store layout, the four retrieval modes (answer
 * equality, candidate-set quality ordering) and mode selection.
 */

#include <gtest/gtest.h>

#include "crs/server.hh"
#include "crs/store.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"

namespace clare::crs {
namespace {

class CrsTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    std::unique_ptr<PredicateStore> store;
    std::unique_ptr<ClauseRetrievalServer> server;

    void
    buildStore(const std::string &text)
    {
        term::Program program;
        for (auto &c : reader.parseProgram(text))
            program.add(std::move(c));
        store = std::make_unique<PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        server = std::make_unique<ClauseRetrievalServer>(sym, *store);
    }

    RetrievalResponse
    retrieve(const std::string &goal_text, SearchMode mode)
    {
        term::ParsedTerm goal = reader.parseTerm(goal_text);
        RetrievalRequest request;
        request.arena = &goal.arena;
        request.goal = goal.root;
        request.mode = mode;
        return server->serve(request);
    }
};

TEST_F(CrsTest, StoreLayout)
{
    buildStore("p(a).\np(b).\nq(c, d).\n");
    term::PredicateId p{sym.lookup("p"), 1};
    term::PredicateId q{sym.lookup("q"), 2};
    EXPECT_TRUE(store->has(p));
    EXPECT_TRUE(store->has(q));
    EXPECT_FALSE(store->has(term::PredicateId{sym.lookup("p"), 2}));
    EXPECT_EQ(store->predicateVersion(p)->clauses.clauseCount(), 2u);
    EXPECT_EQ(store->dataDisk().extent(), store->dataBytes());
    EXPECT_EQ(store->indexDisk().extent(), store->indexBytes());
    // q's clause file sits after p's in the disk image.
    EXPECT_GT(store->predicateVersion(q)->clauseFileOffset, 0u);
}

TEST_F(CrsTest, RuleFractionTracked)
{
    buildStore("r(a).\nr(X) :- r(a).\nr(b).\nr(Y) :- r(b).\n");
    term::PredicateId r{sym.lookup("r"), 1};
    EXPECT_DOUBLE_EQ(store->predicateVersion(r)->ruleFraction, 0.5);
}

TEST_F(CrsTest, UnknownPredicateIsTypedError)
{
    buildStore("p(a).\n");
    EXPECT_THROW(retrieve("nosuch(a)", SearchMode::SoftwareOnly),
                 PredicateNotStoredError);
    // Same name, wrong arity: also not stored.  The error is rooted at
    // clare::Error and names the predicate.
    try {
        retrieve("p(a, b)", SearchMode::SoftwareOnly);
        FAIL() << "serve() of p/2 did not throw";
    } catch (const Error &e) {
        const auto *typed = dynamic_cast<const PredicateNotStoredError *>(&e);
        ASSERT_NE(typed, nullptr) << e.what();
        EXPECT_EQ(typed->predicate(), "p/2");
        EXPECT_FALSE(typed->snapshot().has_value());
        EXPECT_NE(std::string(e.what()).find("p/2"), std::string::npos);
    }
}

TEST_F(CrsTest, AllModesAgreeOnAnswers)
{
    buildStore(
        "edge(a, b).\n"
        "edge(b, c).\n"
        "edge(a, a).\n"
        "edge(X, X).\n"
        "edge(c, d).\n");
    for (SearchMode mode : {SearchMode::SoftwareOnly,
                            SearchMode::Fs1Only, SearchMode::Fs2Only,
                            SearchMode::TwoStage}) {
        RetrievalResponse r = retrieve("edge(a, Y)", mode);
        EXPECT_EQ(r.answers, (std::vector<std::uint32_t>{0, 2, 3}))
            << searchModeName(mode);
        // Candidates are always a superset of answers, in order.
        EXPECT_GE(r.candidates.size(), r.answers.size());
    }
}

TEST_F(CrsTest, SharedVariableAnswersAcrossModes)
{
    buildStore(
        "married_couple(john, mary).\n"
        "married_couple(pat, pat).\n"
        "married_couple(X, X).\n"
        "married_couple(ann, bob).\n");
    for (SearchMode mode : {SearchMode::SoftwareOnly,
                            SearchMode::Fs1Only, SearchMode::Fs2Only,
                            SearchMode::TwoStage}) {
        RetrievalResponse r = retrieve("married_couple(S, S)", mode);
        EXPECT_EQ(r.answers, (std::vector<std::uint32_t>{1, 2}))
            << searchModeName(mode);
    }
}

TEST_F(CrsTest, Fs2ReducesFalseDropsVersusFs1)
{
    buildStore(
        "married_couple(john, mary).\n"
        "married_couple(pat, pat).\n"
        "married_couple(ann, bob).\n"
        "married_couple(eve, adam).\n");
    RetrievalResponse fs1 = retrieve("married_couple(S, S)",
                                   SearchMode::Fs1Only);
    RetrievalResponse two = retrieve("married_couple(S, S)",
                                   SearchMode::TwoStage);
    // FS1 passes the whole predicate; FS2 keeps only the true answer.
    EXPECT_EQ(fs1.candidates.size(), 4u);
    EXPECT_EQ(two.candidates.size(), 1u);
    EXPECT_LT(two.falseDrops(), fs1.falseDrops());
}

TEST_F(CrsTest, TwoStageCandidatesSubsetOfFs1)
{
    buildStore(
        "p(a, b).\np(a, c).\np(b, b).\np(X, Y).\np(a, a).\n");
    RetrievalResponse fs1 = retrieve("p(a, Z)", SearchMode::Fs1Only);
    RetrievalResponse two = retrieve("p(a, Z)", SearchMode::TwoStage);
    for (std::uint32_t c : two.candidates) {
        EXPECT_NE(std::find(fs1.candidates.begin(), fs1.candidates.end(),
                            c), fs1.candidates.end());
    }
}

// Regression: falseDrops() computed candidates - answers on unsigned
// sizes, so a false *negative* (an answer the filter missed, i.e. a
// filter-correctness bug) underflowed to ~2^64 instead of reporting
// anything usable.  Release builds clamp at zero and expose the
// violation through falseNegatives(); debug builds assert.
TEST_F(CrsTest, FalseDropsClampInsteadOfUnderflowing)
{
    RetrievalResponse r;
    r.candidates = {3};
    r.answers = {3, 7};     // one answer the filter never produced
#ifdef NDEBUG
    EXPECT_EQ(r.falseDrops(), 0u);
    EXPECT_EQ(r.falseDropRate(), 0.0);
#else
    EXPECT_DEATH(r.falseDrops(), "false negative");
#endif
    EXPECT_EQ(r.falseNegatives(), 1u);

    RetrievalResponse ok;
    ok.candidates = {1, 2, 3};
    ok.answers = {2};
    EXPECT_EQ(ok.falseDrops(), 2u);
    EXPECT_EQ(ok.falseNegatives(), 0u);
}

TEST_F(CrsTest, TimingFieldsPopulated)
{
    buildStore("p(a).\np(b).\np(c).\n");
    RetrievalResponse sw = retrieve("p(a)", SearchMode::SoftwareOnly);
    EXPECT_GT(sw.breakdown.filterTime, 0u);
    EXPECT_GT(sw.elapsed, 0u);
    RetrievalResponse fs1 = retrieve("p(a)", SearchMode::Fs1Only);
    EXPECT_GT(fs1.breakdown.indexTime, 0u);
    RetrievalResponse two = retrieve("p(a)", SearchMode::TwoStage);
    EXPECT_GT(two.breakdown.indexTime, 0u);
    EXPECT_GT(two.elapsed, two.breakdown.indexTime);
    // The breakdown is the authoritative accounting: its service time
    // is exactly the reported latency.
    EXPECT_EQ(two.breakdown.serviceTime(), two.elapsed);
}

TEST_F(CrsTest, ProfileQuery)
{
    buildStore("p(a).\n");      // store content irrelevant here
    term::ParsedTerm t = reader.parseTerm("q(a, X, f(Y), X, g(b))");
    QueryProfile prof = ClauseRetrievalServer::profileQuery(t.arena,
                                                            t.root);
    EXPECT_EQ(prof.arity, 5u);
    EXPECT_EQ(prof.groundArgs, 2u);         // a, g(b)
    EXPECT_EQ(prof.variableArgs, 2u);       // X, X
    EXPECT_TRUE(prof.hasSharedVars);        // X twice
    EXPECT_TRUE(prof.hasVarBearingStructures);  // f(Y)
}

TEST_F(CrsTest, ModeSelectionHeuristics)
{
    buildStore(
        "fact_pred(a, b).\nfact_pred(c, d).\n"
        "rule_pred(a) :- fact_pred(a, b).\n"
        "rule_pred(b) :- fact_pred(c, d).\n"
        "rule_pred(c).\n");
    auto mode_for = [&](const std::string &text) {
        term::ParsedTerm t = reader.parseTerm(text);
        return server->selectMode(t.arena, t.root);
    };
    // Shared variables need FS2; with ground args the index helps too.
    EXPECT_EQ(mode_for("fact_pred(S, S)"), SearchMode::Fs2Only);
    EXPECT_EQ(mode_for("fact_pred(a, f(X, X))"), SearchMode::TwoStage);
    // All-variable queries cannot be filtered.
    EXPECT_EQ(mode_for("fact_pred(X, Y)"), SearchMode::SoftwareOnly);
    // Ground query on a fact-intensive predicate: the index suffices.
    EXPECT_EQ(mode_for("fact_pred(a, b)"), SearchMode::Fs1Only);
    // Ground query on a rule-intensive predicate: two stages.
    EXPECT_EQ(mode_for("rule_pred(a)"), SearchMode::TwoStage);
}

TEST_F(CrsTest, ServeDefaultsToSelectedMode)
{
    buildStore("p(a, b).\np(c, d).\n");
    term::ParsedTerm t = reader.parseTerm("p(a, X)");
    RetrievalRequest request;
    request.arena = &t.arena;
    request.goal = t.root;
    RetrievalResponse r = server->serve(request);
    EXPECT_EQ(r.mode, server->selectMode(t.arena, t.root));
}

} // namespace
} // namespace clare::crs
