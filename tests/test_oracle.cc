/**
 * @file
 * The single production path against its oracles (ctest labels:
 * sliced, kernels).
 *
 * serve() scans the bit-sliced plane with the dispatched kernel, runs
 * FS2 through the compiled routines, and unifies candidates against
 * pre-decoded heads.  The oracle computes the same retrieval from the
 * reference implementations only — row-major FS1, the WCS interpreter,
 * the software PIF matcher, and re-parsing every candidate's source
 * text for wouldUnify() — and every observable must agree: candidates,
 * answers, filter statistics and each StageBreakdown tick.  The suite
 * covers a 4 x 5000 generated knowledge base in all four search modes,
 * then the live versions an assertz (base + delta) and an
 * asserta/retract (compaction) publish.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

#include "oracle_retrieval.hh"

namespace clare {
namespace {

constexpr crs::SearchMode kAllModes[] = {
    crs::SearchMode::SoftwareOnly, crs::SearchMode::Fs1Only,
    crs::SearchMode::Fs2Only, crs::SearchMode::TwoStage};

class SinglePathOracleTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_single_path_oracle";
    term::SymbolTable sym_;
    term::Program program_;
    std::unique_ptr<crs::PredicateStore> store_;
    std::vector<workload::GeneratedQuery> goals_;

    void
    SetUp() override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        workload::KbGenerator kbgen(sym_);
        workload::KbSpec spec;
        spec.predicates = 4;
        spec.clausesPerPredicate = 5000;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.atomVocabulary = 2000;
        spec.varProb = 0.05;
        spec.seed = 61;
        program_ = kbgen.generate(spec);
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program_);
        store_->finalize();

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.6;
        qspec.sharedVarProb = 0.2;
        qspec.seed = 62;
        workload::QueryGenerator qgen(sym_, qspec);
        for (const term::PredicateId &pred : program_.predicates())
            for (int i = 0; i < 3; ++i)
                goals_.push_back(qgen.generate(program_, pred));
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    /**
     * Serve every goal in every mode and compare each response with
     * the oracle over the version the server pinned.
     */
    void
    expectAllMatchOracle(const std::string &label)
    {
        crs::ClauseRetrievalServer server(sym_, *store_);
        std::size_t answers = 0;
        for (std::size_t g = 0; g < goals_.size(); ++g) {
            const workload::GeneratedQuery &q = goals_[g];
            for (crs::SearchMode mode : kAllModes) {
                crs::RetrievalRequest request;
                request.arena = &q.arena;
                request.goal = q.goal;
                request.mode = mode;
                crs::RetrievalResponse got = server.serve(request);
                ASSERT_NE(got.version, nullptr);
                EXPECT_EQ(got.version,
                          store_->predicateVersion(got.version->clauses
                                                       .predicate()));
                const std::string what = label + " goal " +
                    std::to_string(g) + " " + crs::searchModeSlug(mode);
                oracle::expectSame(
                    oracle::retrieve(sym_, *store_, *got.version,
                                     crs::CrsConfig{}, q.arena, q.goal,
                                     mode),
                    got, what);
                answers += got.answers.size();
            }
        }
        // The goals are drawn from the stored clauses, so a comparison
        // of empty answer sets alone cannot pass.
        EXPECT_GT(answers, 0u) << label;
    }
};

TEST_F(SinglePathOracleTest, BaseVersionMatchesOracleInAllModes)
{
    expectAllMatchOracle("base");
}

TEST_F(SinglePathOracleTest, LiveVersionsMatchOracleInAllModes)
{
    crs::LiveStore live(*store_, sym_, dir_ + "/wal.log");
    term::TermReader reader(sym_);
    const std::vector<term::PredicateId> &preds = program_.predicates();
    auto name = [&](std::size_t p) {
        return sym_.name(preds[p].functor);
    };

    // Assertz commits: every predicate grows a delta (shared base
    // plane and decoded table, per-version tail), across two commits
    // so the second delta extends the first.  The new clauses reuse
    // the goals' first arguments as keys, so they land in the keyed
    // candidate sets next to clauses with other keys.
    Rng rng(63);
    auto key = [&](const workload::GeneratedQuery &q) {
        term::TermRef arg = q.arena.arg(q.goal, 0);
        return q.arena.kind(arg) == term::TermKind::Atom
            ? sym_.name(q.arena.atomSymbol(arg))
            : "a" + std::to_string(rng.below(2000));
    };
    for (int commit = 0; commit < 2; ++commit) {
        crs::LiveStore::Update txn = live.begin();
        for (std::size_t p = 0; p < preds.size(); ++p)
            for (std::size_t g = 0; g < 3; ++g)
                txn.assertz(reader.parseClause(
                    name(p) + "(" + key(goals_[p * 3 + g]) + ", a" +
                    std::to_string(rng.below(2000)) + ")."));
        txn.commit();
    }
    for (std::size_t p = 0; p < preds.size(); ++p) {
        auto v = store_->predicateVersion(preds[p]);
        ASSERT_NE(v->decodedDelta, nullptr);
        EXPECT_EQ(v->decodedDelta->size(), 6u);
        EXPECT_EQ(v->deltaSliced->entryCount(), 6u);
    }
    expectAllMatchOracle("after assertz");

    // asserta shifts every ordinal and retract removes one: a
    // compaction rebuilds the plane and the decoded table.
    live.asserta(reader.parseClause(name(0) + "(a1, a2)."));
    term::ParsedTerm pattern = reader.parseTerm(name(1) + "(X, Y)");
    ASSERT_TRUE(live.retract(pattern.arena, pattern.root).has_value());
    for (std::size_t p : {std::size_t{0}, std::size_t{1}}) {
        auto v = store_->predicateVersion(preds[p]);
        EXPECT_EQ(v->decodedDelta, nullptr);
        EXPECT_EQ(v->deltaSliced, nullptr);
        EXPECT_EQ(v->decoded->size(), v->clauses.clauseCount());
    }
    expectAllMatchOracle("after asserta/retract");
}

} // namespace
} // namespace clare
