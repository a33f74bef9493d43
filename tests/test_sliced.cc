/**
 * @file
 * The bit-sliced FS1 index plane (ctest label: sliced).
 *
 * The contract under test is exactness: the word-parallel kernel is a
 * host-side optimization, so every observable — survivor sets (order
 * included), entriesScanned, bytesScanned, busyTime, the full server
 * response — must be bit-identical to the row-major scan, served alone
 * or in a batch.  The suite property-tests the SlicedMatcher against
 * the structural PlaMatcher across generator configurations, mask
 * densities, and plane sizes at word, lane and block boundaries;
 * round-trips the persisted v3 plane section; and
 * checks that a corrupted plane is a typed load error, never wrong
 * survivors.  It also holds the store's one build path
 * (crs::PredicateBuilder) to the piecewise oracles: images, page CRCs
 * and plane byte-identical to building each from the clauses alone,
 * and a decoded table equal to parsing every stored source text.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crs/server.hh"
#include "crs/store.hh"
#include "crs/store_io.hh"
#include "fs1/fs1_engine.hh"
#include "fs1/pla_matcher.hh"
#include "fs1/sliced_matcher.hh"
#include "scw/bit_sliced_index.hh"
#include "storage/file_io.hh"
#include "support/crc32.hh"
#include "support/errors.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

#include "oracle_retrieval.hh"

namespace clare {
namespace {

/** One generated predicate compiled to all three index forms. */
struct BuiltIndex
{
    scw::CodewordGenerator generator;
    storage::ClauseFile file;
    scw::SecondaryFile index;
    scw::BitSlicedIndex plane;
    std::vector<scw::Signature> queries;
};

BuiltIndex
buildIndex(term::SymbolTable &sym, scw::ScwConfig scw_config,
           const workload::KbSpec &spec, std::size_t query_count,
           double bound_arg_prob)
{
    BuiltIndex out{scw::CodewordGenerator(scw_config), {}, {}, {}, {}};
    workload::KbGenerator kbgen(sym);
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    term::TermWriter writer(sym);
    storage::ClauseFileBuilder builder(writer);
    std::vector<scw::Signature> sigs;
    for (std::size_t i : program.clausesOf(pred)) {
        const term::Clause &c = program.clause(i);
        builder.add(c);
        sigs.push_back(out.generator.encode(c.arena(), c.head()));
    }
    out.file = builder.finish();
    out.index = scw::SecondaryFile::build(out.generator, sigs, out.file);
    out.plane = scw::BitSlicedIndex::build(out.generator, out.index);

    workload::QuerySpec qspec;
    qspec.boundArgProb = bound_arg_prob;
    qspec.seed = spec.seed + 1000;
    workload::QueryGenerator qgen(sym, qspec);
    for (std::size_t q = 0; q < query_count; ++q) {
        workload::GeneratedQuery gq = qgen.generate(program, pred);
        out.queries.push_back(out.generator.encode(gq.arena, gq.goal));
    }
    return out;
}

/** PlaMatcher survivors of @p query over every entry, in entry order. */
std::vector<scw::IndexEntry>
plaSurvivors(const BuiltIndex &built, const scw::Signature &query)
{
    fs1::PlaMatcher pla(built.generator);
    pla.setQuery(query);
    std::vector<scw::IndexEntry> hits;
    for (std::size_t i = 0; i < built.index.entryCount(); ++i) {
        scw::IndexEntry entry = built.index.entry(built.generator, i);
        if (pla.present(entry.signature))
            hits.push_back(std::move(entry));
    }
    return hits;
}

void
expectSameHits(const std::vector<scw::IndexEntry> &expected,
               const fs1::SlicedMatcher::Hits &got,
               const std::string &label)
{
    ASSERT_EQ(got.clauseOffsets.size(), expected.size()) << label;
    ASSERT_EQ(got.ordinals.size(), expected.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got.clauseOffsets[i], expected[i].clauseOffset)
            << label << " hit " << i;
        EXPECT_EQ(got.ordinals[i], expected[i].ordinal)
            << label << " hit " << i;
    }
}

// ---------------------------------------------------------------------
// SlicedMatcher vs PlaMatcher: the exactness property.
// ---------------------------------------------------------------------

TEST(SlicedMatcherTest, AgreesWithPlaAcrossConfigsAndMaskDensities)
{
    struct Case
    {
        std::uint32_t fieldBits;
        std::uint32_t bitsPerTerm;
        std::uint32_t arityMin, arityMax;
        std::uint32_t clauses;      // straddle 64-entry word boundaries
        double varProb;             // mask-plane density
    };
    const Case cases[] = {
        {16, 2, 1, 3, 63, 0.0},     // ground, just under one word
        {16, 2, 1, 3, 64, 0.15},    // exactly one word
        {16, 2, 2, 4, 65, 0.35},    // one word + 1 entry
        {8, 1, 1, 2, 130, 0.6},     // narrow fields, mask-heavy
        {32, 3, 2, 5, 200, 0.1},    // wide fields
        {16, 2, 10, 14, 90, 0.2},   // arity past the encoding limit
    };
    for (const Case &c : cases) {
        term::SymbolTable sym;
        scw::ScwConfig scw_config;
        scw_config.fieldBits = c.fieldBits;
        scw_config.bitsPerTerm = c.bitsPerTerm;
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = c.clauses;
        spec.arityMin = c.arityMin;
        spec.arityMax = c.arityMax;
        spec.varProb = c.varProb;
        spec.structProb = 0.2;
        spec.seed = 7 + c.clauses;
        BuiltIndex built = buildIndex(sym, scw_config, spec, 6, 0.7);
        ASSERT_EQ(built.plane.entryCount(), built.index.entryCount());

        for (std::size_t q = 0; q < built.queries.size(); ++q) {
            std::string label = std::to_string(c.clauses) + " clauses, "
                + std::to_string(c.fieldBits) + " bits, query "
                + std::to_string(q);
            expectSameHits(
                plaSurvivors(built, built.queries[q]),
                fs1::SlicedMatcher::scan(built.plane, built.queries[q]),
                label);
        }
    }
}

// ---------------------------------------------------------------------
// Fs1Engine: the production scan entry point.
// ---------------------------------------------------------------------

void
expectSameResult(const fs1::Fs1Result &a, const fs1::Fs1Result &b,
                 const std::string &label)
{
    EXPECT_EQ(a.clauseOffsets, b.clauseOffsets) << label;
    EXPECT_EQ(a.ordinals, b.ordinals) << label;
    EXPECT_EQ(a.entriesScanned, b.entriesScanned) << label;
    EXPECT_EQ(a.bytesScanned, b.bytesScanned) << label;
    EXPECT_EQ(a.busyTime, b.busyTime) << label;
}

TEST(Fs1SlicedEngineTest, MissingOrMismatchedPlaneIsRejected)
{
    // There is no row-major fallback on the production path: a plane
    // that does not cover the index is a typed error, never a silent
    // change of scan path (or wrong survivors).
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 80;
    spec.seed = 66;
    BuiltIndex built = buildIndex(sym, {}, spec, 2, 0.7);
    spec.clausesPerPredicate = 79;
    BuiltIndex shorter = buildIndex(sym, {}, spec, 1, 0.7);

    fs1::Fs1Engine engine(built.generator);
    for (const scw::Signature &query : built.queries) {
        EXPECT_THROW(engine.search(built.index, nullptr, nullptr, 0,
                                   query),
                     FatalError);
        EXPECT_THROW(engine.search(built.index, &shorter.plane, nullptr,
                                   0, query),
                     FatalError);
        // A delta that does not tile the file is rejected too.
        EXPECT_THROW(engine.search(built.index, &built.plane,
                                   &shorter.plane, 80, query),
                     FatalError);
    }
}

// ---------------------------------------------------------------------
// Persistence: the v3 CLSX section round-trips, corruption is typed.
// ---------------------------------------------------------------------

class SlicedStoreTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_sliced_store";
    term::SymbolTable sym_;
    std::unique_ptr<crs::PredicateStore> store_;

    void
    SetUp() override
    {
        term::TermReader reader(sym_);
        term::Program program;
        for (auto &c : reader.parseProgram(
                 "p(a, 1).\np(b, 2).\np(a, 3).\np(c, 4).\n"
                 "q(a).\nq(b).\nq(c).\n"))
            program.add(std::move(c));
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string
    idxPathOf(std::uint32_t arity) const
    {
        for (const term::PredicateId &pred : store_->predicates()) {
            if (pred.arity == arity)
                return dir_ + "/pred_" + std::to_string(pred.functor) +
                    "_" + std::to_string(pred.arity) + ".idx";
        }
        ADD_FAILURE() << "no predicate of arity " << arity;
        return "";
    }
};

TEST_F(SlicedStoreTest, FinalizeBuildsPlanesAndDecodedTables)
{
    for (const term::PredicateId &pred : store_->predicates()) {
        const std::shared_ptr<const crs::StoredPredicate> pinned =
            store_->predicateVersion(pred);
        const crs::StoredPredicate &stored = *pinned;
        ASSERT_NE(stored.sliced, nullptr);
        EXPECT_TRUE(*stored.sliced ==
                    scw::BitSlicedIndex::build(store_->generator(),
                                               stored.index));
        ASSERT_NE(stored.decoded, nullptr);
        EXPECT_EQ(stored.decoded->size(), stored.clauses.clauseCount());
        EXPECT_EQ(stored.decodedDelta, nullptr);
    }
}

/**
 * Build @p program through PredicateStore::addProgram and hold every
 * predicate to the oracles: the clause image, index image, page CRCs
 * and plane byte-identical to compiling each piece from the clauses
 * (BitSlicedIndex::build transposes the index image), every decoded
 * clause equal to its source text parsed, and the decoded table no
 * larger than the load path's text-parse decode.
 */
void
expectBuildIdentity(term::SymbolTable &sym, const term::Program &program)
{
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const scw::CodewordGenerator &gen = store.generator();
    term::TermWriter writer(sym);
    ASSERT_FALSE(program.predicates().empty());
    for (const term::PredicateId &pred : program.predicates()) {
        storage::ClauseFileBuilder builder(writer);
        std::vector<scw::Signature> sigs;
        for (std::size_t i : program.clausesOf(pred)) {
            const term::Clause &c = program.clause(i);
            builder.add(c);
            sigs.push_back(gen.encode(c.arena(), c.head()));
        }
        const storage::ClauseFile file = builder.finish();
        const scw::SecondaryFile index =
            scw::SecondaryFile::build(gen, sigs, file);

        const std::shared_ptr<const crs::StoredPredicate> v =
            store.predicateVersion(pred);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->clauses.image(), file.image());
        EXPECT_EQ(v->index.image(), index.image());
        EXPECT_EQ(v->indexPageCrcs,
                  support::pageChecksums(index.image().data(),
                                         index.image().size()));
        ASSERT_NE(v->sliced, nullptr);
        EXPECT_TRUE(*v->sliced == scw::BitSlicedIndex::build(gen, index));
        EXPECT_EQ(v->deltaSliced, nullptr);
        ASSERT_NE(v->decoded, nullptr);
        oracle::expectDecodedAsParsed(sym, file, *v->decoded);
        EXPECT_LE(v->decoded->memoryBytes(),
                  crs::decodeClauses(file, sym)->memoryBytes());
    }
}

TEST(PredicateBuilderTest, ReferenceKbBuildIsIdenticalToTheOracles)
{
    // The benchmark's reference KB shape: 4 x 5000 arity-2 facts with
    // structures, lists, integers and floats.
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 4;
    spec.clausesPerPredicate = 5000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 2000;
    spec.seed = 1;
    workload::KbGenerator gen(sym);
    expectBuildIdentity(sym, gen.generate(spec));
}

TEST(PredicateBuilderTest, RulesAndVariablesDecodeAsTheirTextReadsBack)
{
    // Rules, shared and anonymous variables, list tails, operators,
    // negative numbers, a float the text rounds and a disjunctive
    // body: the import renumbers variables as the reader would, and a
    // clause whose text does not read back as itself is parsed.
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    for (term::Clause &c : reader.parseProgram(
             "path(X, Y) :- edge(X, Y).\n"
             "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
             "path(_, nowhere).\n"
             "path([H|T], f(T, H, -3)) :- X is H * 2 + 1, X > -1.5.\n"
             "path(Same, Same) :- \\+ edge(Same, _), !.\n"
             "path(p(1.2345678), 'Quoted atom') :- (a ; b), c.\n"
             "path(g(A, [B, C | D]), E) :- call(A), E = [B, C | D].\n"
             "edge(a, b).\nedge(b, 2.5).\nedge(Y, X) :- edge(X, Y).\n"))
        program.add(std::move(c));
    // A generated clause numbers its variables out of text order.
    {
        term::TermArena arena;
        const term::SymbolId path = sym.intern("path");
        const term::TermRef args[] = {
            arena.makeVar(7, sym.intern("Late")),
            arena.makeVar(2, sym.intern("Early"))};
        const term::TermRef head = arena.makeStruct(path, args);
        const term::TermRef goal_args[] = {
            arena.makeVar(2, sym.intern("Early")),
            arena.makeVar(7, sym.intern("Late"))};
        const term::TermRef goal =
            arena.makeStruct(sym.intern("edge"), goal_args);
        program.add(term::Clause(std::move(arena), head, {goal}));
    }
    expectBuildIdentity(sym, program);
}

TEST(PredicateBuilderTest, LoadDecodeSpansBatchesWithoutSlack)
{
    // A load decodes a large predicate a batch at a time, each into an
    // arena of its own: every clause, on either side of a batch
    // boundary, still equals its text parsed, and the table holds no
    // more than a build's single-arena table plus a little per batch.
    term::SymbolTable sym;
    std::string text;
    for (int i = 0; i < 9000; ++i)
        text += i % 3 == 0
            ? "p(k" + std::to_string(i) + ", X) :- q(X, " +
                std::to_string(i) + "), r([X | T], T).\n"
            : "p(k" + std::to_string(i) + ", f(v, " + std::to_string(i) +
                ")).\n";
    term::TermReader reader(sym);
    term::Program program;
    for (term::Clause &c : reader.parseProgram(text))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const auto v = store.predicateVersion(program.predicates()[0]);
    ASSERT_NE(v, nullptr);

    const auto loaded = crs::decodeClauses(v->clauses, sym);
    oracle::expectDecodedAsParsed(sym, v->clauses, *loaded);
    for (std::size_t i = 0; i < loaded->size(); ++i)
        EXPECT_TRUE(oracle::sameClause(loaded->view(i),
                                       v->decoded->view(i)))
            << i;
    EXPECT_LE(loaded->memoryBytes(),
              v->decoded->memoryBytes() + v->decoded->memoryBytes() / 100);
}

TEST_F(SlicedStoreTest, V3RoundTripCarriesIdenticalPlanes)
{
    term::SymbolTable fresh;
    crs::PredicateStore loaded = crs::loadStore(dir_, fresh);
    ASSERT_EQ(loaded.predicates().size(), store_->predicates().size());
    for (const term::PredicateId &pred : loaded.predicates()) {
        const std::shared_ptr<const crs::StoredPredicate> pinned =
            loaded.predicateVersion(pred);
        const crs::StoredPredicate &got = *pinned;
        ASSERT_NE(got.sliced, nullptr);
        EXPECT_TRUE(*got.sliced ==
                    scw::BitSlicedIndex::build(loaded.generator(),
                                               got.index));
        EXPECT_TRUE(*got.sliced ==
                    *store_->predicateVersion(pred)->sliced);
    }
}

TEST_F(SlicedStoreTest, SaveWithoutPrebuiltPlanesStillWritesV3)
{
    // A store built without an explicit plane step saves v3, so every
    // v3 store loads with planes available.
    term::SymbolTable sym2;
    term::TermReader reader(sym2);
    term::Program program;
    for (auto &c : reader.parseProgram("r(x).\nr(y).\n"))
        program.add(std::move(c));
    crs::PredicateStore plain(sym2, scw::CodewordGenerator{});
    plain.addProgram(program);
    plain.finalize();
    std::string dir = ::testing::TempDir() + "clare_sliced_transient";
    crs::saveStore(dir, plain, sym2);

    term::SymbolTable fresh;
    crs::PredicateStore loaded = crs::loadStore(dir, fresh);
    for (const term::PredicateId &pred : loaded.predicates())
        EXPECT_NE(loaded.predicateVersion(pred)->sliced, nullptr);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST_F(SlicedStoreTest, CorruptPlaneSectionIsTypedLoadError)
{
    // Flip a plane word *inside* the page frame (re-framing keeps the
    // page CRC valid), so only the CLSX section CRC can catch it.
    std::string idx = idxPathOf(2);
    std::vector<std::uint8_t> payload = storage::readFramedBytes(idx);
    std::size_t entry_bytes = 0;
    for (const term::PredicateId &pred : store_->predicates())
        if (pred.arity == 2)
            entry_bytes =
                store_->predicateVersion(pred)->index.image().size();
    ASSERT_GT(payload.size(), entry_bytes + 40);
    payload[entry_bytes + 40] ^= 0x04;
    storage::writeFramedBytes(idx, payload);

    term::SymbolTable fresh;
    try {
        crs::loadStore(dir_, fresh);
        FAIL() << "corrupt plane section loaded";
    } catch (const CorruptionError &e) {
        EXPECT_NE(std::string(e.what()).find("sliced plane section"),
                  std::string::npos) << e.what();
    }
}

TEST_F(SlicedStoreTest, TrailingBytesAfterPlaneSectionRejected)
{
    std::string idx = idxPathOf(1);
    std::vector<std::uint8_t> payload = storage::readFramedBytes(idx);
    payload.push_back(0);
    storage::writeFramedBytes(idx, payload);
    // The framed size change is caught by the store audit; what must
    // never happen is a silent load.
    term::SymbolTable fresh;
    EXPECT_THROW(crs::loadStore(dir_, fresh), CorruptionError);
}

// ---------------------------------------------------------------------
// Server: serve() and serveBatch() are bit-identical to the oracle.
// ---------------------------------------------------------------------

class SlicedServerTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<term::TermReader> reader;
    std::vector<term::ParsedTerm> goals;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 150;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.varProb = 0.1;
        spec.seed = 47;
        term::Program program = kbgen.generate(spec);
        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        reader = std::make_unique<term::TermReader>(sym);
        for (const char *text :
             {"p0(a1, X)", "p0(a2, X)", "p0(a3, X)", "p0(a1, b)",
              "p1(a4, X)", "p1(a5, X)", "p2(a6, X)", "p2(a7, X)"}) {
            goals.push_back(reader->parseTerm(text));
        }
    }

    std::unique_ptr<crs::ClauseRetrievalServer>
    makeServer(crs::CrsConfig config = {})
    {
        return std::make_unique<crs::ClauseRetrievalServer>(sym, *store,
                                                            config);
    }

    static crs::RetrievalRequest
    request(const term::ParsedTerm &goal,
            crs::SearchMode mode = crs::SearchMode::TwoStage)
    {
        crs::RetrievalRequest r;
        r.arena = &goal.arena;
        r.goal = goal.root;
        r.mode = mode;
        return r;
    }

    /** A batch mixing FS1 modes with non-FS1 ones, repeated goals. */
    std::vector<crs::RetrievalRequest>
    mixedBatch() const
    {
        std::vector<crs::RetrievalRequest> batch;
        for (int round = 0; round < 2; ++round) {
            for (std::size_t g = 0; g < goals.size(); ++g) {
                batch.push_back(request(goals[g]));
                if (g % 3 == 0)
                    batch.push_back(request(
                        goals[g], crs::SearchMode::SoftwareOnly));
                if (g % 4 == 1)
                    batch.push_back(request(
                        goals[g], crs::SearchMode::Fs1Only));
            }
        }
        return batch;
    }

    static void
    expectIdentical(const crs::RetrievalResponse &a,
                    const crs::RetrievalResponse &b,
                    const std::string &label)
    {
        EXPECT_EQ(a.mode, b.mode) << label;
        EXPECT_EQ(a.candidates, b.candidates) << label;
        EXPECT_EQ(a.answers, b.answers) << label;
        EXPECT_EQ(a.indexEntriesScanned, b.indexEntriesScanned) << label;
        EXPECT_EQ(a.fs1Hits, b.fs1Hits) << label;
        EXPECT_EQ(a.clausesExamined, b.clausesExamined) << label;
        EXPECT_EQ(a.filterOps, b.filterOps) << label;
        EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime) << label;
        EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime)
            << label;
        EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime)
            << label;
        EXPECT_EQ(a.elapsed, b.elapsed) << label;
        EXPECT_EQ(a.elapsed, a.breakdown.serviceTime()) << label;
    }
};

TEST_F(SlicedServerTest, ServeBatchMatchesOracleAndServeLoop)
{
    std::vector<crs::RetrievalRequest> batch = mixedBatch();
    auto batched = makeServer();
    auto looped = makeServer();
    std::vector<crs::RetrievalResponse> got = batched->serveBatch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const crs::RetrievalRequest &r = batch[i];
        const std::shared_ptr<const crs::StoredPredicate> stored =
            store->predicateVersion(term::PredicateId{
                r.arena->functor(r.goal), r.arena->arity(r.goal)});
        const std::string label = "request " + std::to_string(i);
        oracle::expectSame(
            oracle::retrieve(sym, *store, *stored, crs::CrsConfig{},
                             *r.arena, r.goal, *r.mode),
            got[i], "oracle, " + label);
        expectIdentical(looped->serve(r), got[i], "serve loop, " + label);
    }
}

TEST_F(SlicedServerTest, SlicedSingleRequestsMatchOracle)
{
    auto server = makeServer();
    for (const term::ParsedTerm &goal : goals) {
        const std::shared_ptr<const crs::StoredPredicate> pinned =
            store->predicateVersion(
                term::PredicateId{goal.arena.functor(goal.root),
                                  goal.arena.arity(goal.root)});
        const crs::StoredPredicate &stored = *pinned;
        for (crs::SearchMode mode : {crs::SearchMode::Fs1Only,
                                     crs::SearchMode::TwoStage}) {
            crs::RetrievalResponse want =
                oracle::retrieve(sym, *store, stored, crs::CrsConfig{},
                                 goal.arena, goal.root, mode);
            crs::RetrievalResponse got = server->serve(request(goal, mode));
            expectIdentical(want, got, crs::searchModeSlug(mode));
            oracle::expectSame(want, got, crs::searchModeSlug(mode));
        }
    }
}

// ---------------------------------------------------------------------
// The plane kernel at whole-plane boundary sizes vs the PLA oracle.
// ---------------------------------------------------------------------

TEST(SlicedKernelTest, BoundaryPlaneSizesAgreeWithPla)
{
    // Whole planes of every size at a word, lane or block boundary:
    // the slack bits past the last entry, the scalar tail after the
    // kernel's 8-word lanes (511/512/513/577 entries are 8, 8, 9 and
    // 10 words) and the 256-word block edge (16,385 entries) are the
    // hazards.  The sizes in between are those of entry ranges that
    // earlier partial-range tests scanned.  Each plane also meets a
    // query with no bound field, which leaves every entry a survivor,
    // so a slack bit that is not masked off shows as a hit.
    for (std::uint32_t clauses :
         {1u, 2u, 3u, 50u, 57u, 58u, 63u, 64u, 65u, 76u, 122u, 136u,
          150u, 193u, 200u, 511u, 512u, 513u, 577u, 16385u}) {
        term::SymbolTable sym;
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = clauses;
        spec.varProb = 0.2;
        spec.seed = 120 + clauses;
        BuiltIndex built = buildIndex(sym, {}, spec, 3, 0.5);
        ASSERT_EQ(built.plane.entryCount(), clauses);
        scw::Signature open = built.queries.front();
        for (BitVec &code : open.fields)
            code = BitVec(built.plane.fieldBits());
        built.queries.push_back(std::move(open));
        for (std::size_t q = 0; q < built.queries.size(); ++q) {
            expectSameHits(
                plaSurvivors(built, built.queries[q]),
                fs1::SlicedMatcher::scan(built.plane, built.queries[q]),
                std::to_string(clauses) + " clauses, query " +
                    std::to_string(q));
        }
    }
}

TEST(SlicedKernelTest, EmptyPlaneHasNoSurvivors)
{
    scw::CodewordGenerator generator;
    const scw::BitSlicedIndex plane(generator, 0);
    scw::Signature query;
    for (std::uint32_t f = 0; f < plane.fields(); ++f)
        query.fields.emplace_back(plane.fieldBits());
    const fs1::SlicedMatcher::Hits hits =
        fs1::SlicedMatcher::scan(plane, query);
    EXPECT_TRUE(hits.ordinals.empty());
    EXPECT_TRUE(hits.clauseOffsets.empty());
    EXPECT_EQ(hits.wordOps, 0u);
}

TEST(SlicedKernelTest, EngineBitIdenticalToRowMajor)
{
    term::SymbolTable sym;
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 321;
    spec.varProb = 0.15;
    spec.seed = 77;
    BuiltIndex built = buildIndex(sym, {}, spec, 6, 0.7);

    fs1::Fs1Engine engine(built.generator);
    for (const scw::Signature &query : built.queries)
        expectSameResult(engine.searchRowMajor(built.index, query),
                         engine.search(built.index, &built.plane,
                                       nullptr, 0, query),
                         "321 entries");
}

} // namespace
} // namespace clare
