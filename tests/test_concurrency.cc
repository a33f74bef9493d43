/**
 * @file
 * Concurrency coverage: thread-pool primitives, FS1 shard determinism
 * (bit-identical candidates and answers at any shard width), server
 * retrieval against the reference oracle, serveBatch() equivalence
 * with a serve() loop, fs1.* metric aggregation on a shared server,
 * and live-update interleaving: a writer thread streaming assertz
 * commits through a LiveStore while concurrent serveBatch() readers
 * prove that snapshot-pinned reads stay bit-identical to the quiesced
 * pre-commit reference, and while another thread enumerates the
 * store's predicates as commits register new ones, and while readers
 * pin the very head version each commit appends onto in place (all
 * four modes and kb::clausesFor).  These
 * tests carry the `tsan` ctest label so a -DCLARE_SANITIZE=thread
 * build exercises them under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "kb/knowledge_base.hh"
#include "net/wire.hh"
#include "oracle_retrieval.hh"
#include "support/thread_pool.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

/** One goal through the unified front door. */
crs::RetrievalResponse
serveOne(crs::ClauseRetrievalServer &server, const term::TermArena &arena,
         term::TermRef goal, std::optional<crs::SearchMode> mode = {})
{
    crs::RetrievalRequest request;
    request.arena = &arena;
    request.goal = goal;
    request.mode = mode;
    return server.serve(request);
}

// ---------------------------------------------------------------------
// ThreadPool primitives.
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    support::ThreadPool pool(3);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> touched(kCount);
    pool.parallelFor(kCount, [&](std::size_t i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline)
{
    support::ThreadPool pool(0);
    int calls = 0;
    pool.parallelFor(5, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock)
{
    // A sharded scan may be issued from inside a pool task; the
    // construct must complete even when the nested loop's helper jobs
    // can never be picked up by another worker.
    // Each outer body waits until both have started, so the calling
    // thread cannot take both indices and one nested loop must be
    // issued from the pool's only worker.
    support::ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> started{0};
    std::atomic<int> n{0};
    std::atomic<int> nestedOffCaller{0};
    pool.parallelFor(2, [&](std::size_t) {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < 2)
            std::this_thread::yield();
        pool.parallelFor(8, [&](std::size_t) {
            n.fetch_add(1, std::memory_order_relaxed);
            if (std::this_thread::get_id() != caller)
                nestedOffCaller.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(n.load(), 16);
    EXPECT_GE(nestedOffCaller.load(), 1);
}

// ---------------------------------------------------------------------
// Shard ranges.
// ---------------------------------------------------------------------

TEST(ShardRangeTest, PartitionIsContiguousAndComplete)
{
    scw::CodewordGenerator gen;
    scw::SecondaryFile file = scw::SecondaryFile::fromImage(
        std::vector<std::uint8_t>(10 * (gen.signatureBytes() + 8)), 10,
        gen.signatureBytes() + 8);
    for (std::size_t shards : {1u, 2u, 3u, 7u, 10u, 32u}) {
        std::vector<scw::EntryRange> ranges = file.shardRanges(shards);
        ASSERT_FALSE(ranges.empty());
        EXPECT_LE(ranges.size(), std::min<std::size_t>(shards, 10));
        EXPECT_EQ(ranges.front().begin, 0u);
        EXPECT_EQ(ranges.back().end, 10u);
        for (std::size_t s = 1; s < ranges.size(); ++s)
            EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
    }
    EXPECT_TRUE(file.shardRanges(0).empty());
}

// ---------------------------------------------------------------------
// Engine-level sharded scan.  The server scans unsharded, so this test
// drives Fs1Engine directly with an explicit pool and shard width to
// cover the scan/merge path with real threads on any hardware.
// ---------------------------------------------------------------------

TEST(Fs1ShardedScanTest, MatchesSequentialScanForAnyShardWidth)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 500;
    spec.varProb = 0.1;
    spec.seed = 29;
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const std::shared_ptr<const crs::StoredPredicate> pinned =
        store.predicateVersion(program.predicates()[0]);
    const crs::StoredPredicate &stored = *pinned;

    term::TermReader reader(sym);
    term::ParsedTerm goal = reader.parseTerm("p0(a1, B)");
    scw::Signature sig = store.generator().encode(goal.arena, goal.root);

    fs1::Fs1Engine engine(store.generator(), fs1::Fs1Config{});
    fs1::Fs1Result seq = engine.searchRowMajor(stored.index, sig);
    ASSERT_GT(seq.entriesScanned, 0u);

    support::ThreadPool pool(3);
    for (std::uint32_t shards : {2u, 4u, 16u}) {
        fs1::Fs1Result par =
            engine.search(stored.index, stored.sliced.get(), nullptr, 0,
                          sig, &pool, shards);
        EXPECT_EQ(par.ordinals, seq.ordinals) << shards << " shards";
        EXPECT_EQ(par.clauseOffsets, seq.clauseOffsets);
        EXPECT_EQ(par.entriesScanned, seq.entriesScanned);
        EXPECT_EQ(par.bytesScanned, seq.bytesScanned);
        // Shard byte counts are summed before the single tick
        // conversion, so timing is identical at any shard width.
        EXPECT_EQ(par.busyTime, seq.busyTime);
        EXPECT_EQ(par.shards, shards);
    }
}

// ---------------------------------------------------------------------
// Retrieval pipeline determinism.
// ---------------------------------------------------------------------

class PipelineTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::Program program;
    std::unique_ptr<crs::PredicateStore> store;
    std::vector<workload::GeneratedQuery> queries;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 300;
        spec.varProb = 0.1;
        spec.structProb = 0.25;
        spec.seed = 17;
        program = kbgen.generate(spec);

        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.6;
        qspec.sharedVarProb = 0.2;
        qspec.seed = 23;
        workload::QueryGenerator qgen(sym, qspec);
        for (int i = 0; i < 12; ++i) {
            const auto &pred =
                program.predicates()[i % program.predicates().size()];
            queries.push_back(qgen.generate(program, pred));
        }
    }

    std::unique_ptr<crs::ClauseRetrievalServer>
    makeServer()
    {
        return std::make_unique<crs::ClauseRetrievalServer>(sym, *store);
    }
};

TEST_F(PipelineTest, RetrievalMatchesOracleInFs1Modes)
{
    auto server = makeServer();
    for (const workload::GeneratedQuery &q : queries) {
        const term::PredicateId pred{q.arena.functor(q.goal),
                                     q.arena.arity(q.goal)};
        const std::shared_ptr<const crs::StoredPredicate> pinned =
            store->predicateVersion(pred);
        for (crs::SearchMode mode : {crs::SearchMode::Fs1Only,
                                     crs::SearchMode::TwoStage}) {
            crs::RetrievalResponse got =
                serveOne(*server, q.arena, q.goal, mode);
            crs::RetrievalResponse want = oracle::retrieve(
                sym, *store, *pinned, server->config(), q.arena, q.goal,
                mode);
            oracle::expectSame(want, got, crs::searchModeName(mode));
        }
    }
}

TEST_F(PipelineTest, ServeBatchMatchesSequentialLoop)
{
    using Request = crs::RetrievalRequest;
    std::vector<Request> batch;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        Request r;
        r.arena = &queries[i].arena;
        r.goal = queries[i].goal;
        // Mix explicit modes with auto-selection.
        if (i % 3 == 0)
            r.mode = crs::SearchMode::TwoStage;
        else if (i % 3 == 1)
            r.mode = crs::SearchMode::Fs1Only;
        batch.push_back(r);
    }

    auto seq_server = makeServer();
    std::vector<crs::RetrievalResponse> expected;
    for (const Request &r : batch)
        expected.push_back(seq_server->serve(r));

    auto server = makeServer();
    std::vector<crs::RetrievalResponse> got = server->serveBatch(batch);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(net::responsesIdentical(got[i], expected[i]))
            << "query " << i;
        EXPECT_EQ(got[i].candidates, expected[i].candidates)
            << "query " << i;
        EXPECT_EQ(got[i].answers, expected[i].answers) << "query " << i;
    }
}

TEST_F(PipelineTest, SharedServerMetricsAggregateFs1Scans)
{
    auto server = makeServer();
    std::uint64_t scanned = 0;
    for (const workload::GeneratedQuery &q : queries) {
        crs::RetrievalResponse r = serveOne(
            *server, q.arena, q.goal, crs::SearchMode::Fs1Only);
        scanned += r.indexEntriesScanned;
    }
    obs::MetricsRegistry &m = server->metrics();
    EXPECT_EQ(m.counter("fs1.entries_scanned").value(), scanned);
    EXPECT_EQ(m.counter("fs1.searches").value(), queries.size());
}

// ---------------------------------------------------------------------
// Live-update interleaving: a writer thread streams single-clause
// assertz commits through a LiveStore while reader threads hammer
// serveBatch() on the same server.  Reads pinned at snapshot 0 must be
// bit-identical (answers AND modeled ticks) to the reference captured
// before the writer started; unpinned head reads may only grow (the
// stream is assertz-only) and must equal a quiesced from-scratch
// rebuild once the writer joins.
// ---------------------------------------------------------------------

TEST(LiveInterleavingTest, SnapshotReadsAreIsolatedFromAStreamingWriter)
{
    constexpr const char *kLiveBase =
        "edge(a, b). edge(b, c). edge(a, a). edge(c, d). edge(d, a).\n"
        "link(a, b, c). link(b, c, d).\n";
    const std::vector<std::string> goal_texts = {
        "edge(a, X)", "edge(X, Y)", "edge(X, d)", "link(a, X, Y)"};
    constexpr int kStream = 24;

    term::SymbolTable sym;
    term::TermReader reader(sym);

    auto build = [&](const std::string &text) {
        term::Program program;
        for (auto &c : reader.parseProgram(text))
            program.add(std::move(c));
        auto store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        return store;
    };
    auto store = build(kLiveBase);

    const std::string wal_path =
        ::testing::TempDir() + "live_interleave.wal";
    std::remove(wal_path.c_str());
    crs::LiveStore live(*store, sym, wal_path);

    crs::ClauseRetrievalServer server(sym, *store);
    live.attachSink(&server);

    // Pre-parse every clause the writer will stream so all symbol
    // interning happens before a second thread exists — the
    // SymbolTable is unsynchronized, and once the names are in the
    // table the commit path only performs lookups.
    std::vector<term::Clause> stream;
    std::string streamed_text;
    for (int i = 0; i < kStream; ++i) {
        std::string text = "edge(w" + std::to_string(i) + ", w" +
                           std::to_string(i + 1) + ").";
        stream.push_back(reader.parseClause(text));
        streamed_text += text + "\n";
    }

    std::vector<term::ParsedTerm> goals;
    for (const std::string &text : goal_texts)
        goals.push_back(reader.parseTerm(text));
    std::vector<crs::RetrievalRequest> pinned;
    std::vector<crs::RetrievalRequest> head;
    for (std::size_t i = 0; i < goals.size(); ++i) {
        crs::RetrievalRequest r;
        r.arena = &goals[i].arena;
        r.goal = goals[i].root;
        r.mode = (i % 2 == 0) ? crs::SearchMode::TwoStage
                              : crs::SearchMode::Fs1Only;
        head.push_back(r);
        r.snapshot = 0;
        pinned.push_back(r);
    }

    // Reference captured while quiesced, before the first commit.
    const std::vector<crs::RetrievalResponse> expected =
        server.serveBatch(pinned);
    ASSERT_EQ(expected.size(), pinned.size());

    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (const term::Clause &clause : stream)
            live.assertz(clause);
        done.store(true, std::memory_order_release);
    });

    // Pinned reader: every batch must be bit-identical to the
    // pre-write reference no matter what the writer publishes.
    std::thread snap_reader([&] {
        do {
            std::vector<crs::RetrievalResponse> got =
                server.serveBatch(pinned);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].mode, expected[i].mode) << i;
                EXPECT_EQ(got[i].candidates, expected[i].candidates)
                    << "goal " << i;
                EXPECT_EQ(got[i].answers, expected[i].answers)
                    << "goal " << i;
                EXPECT_EQ(got[i].indexEntriesScanned,
                          expected[i].indexEntriesScanned)
                    << "goal " << i;
                EXPECT_EQ(got[i].elapsed, expected[i].elapsed)
                    << "goal " << i;
            }
        } while (!done.load(std::memory_order_acquire));
    });

    // Head reader: unpinned batches race the writer; with an
    // assertz-only stream the all-variables scan can only grow.
    std::thread head_reader([&] {
        do {
            std::vector<crs::RetrievalResponse> got =
                server.serveBatch(head);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_GE(got[i].answers, expected[i].answers)
                    << "goal " << i;
            }
        } while (!done.load(std::memory_order_acquire));
    });

    writer.join();
    snap_reader.join();
    head_reader.join();
    EXPECT_EQ(store->headGeneration(),
              static_cast<std::uint64_t>(kStream));

    // Quiesced: the pinned view still reads pre-write...
    std::vector<crs::RetrievalResponse> still =
        server.serveBatch(pinned);
    for (std::size_t i = 0; i < still.size(); ++i) {
        EXPECT_EQ(still[i].answers, expected[i].answers) << i;
        EXPECT_EQ(still[i].elapsed, expected[i].elapsed) << i;
    }

    // ...and the head view is bit-identical to a from-scratch
    // rebuild of base + stream (shared symbol table, so signatures
    // and modeled ticks must match exactly).
    auto rebuilt = build(kLiveBase + streamed_text);
    crs::ClauseRetrievalServer ref_server(sym, *rebuilt);
    std::vector<crs::RetrievalResponse> live_head =
        server.serveBatch(head);
    std::vector<crs::RetrievalResponse> ref_head =
        ref_server.serveBatch(head);
    ASSERT_EQ(live_head.size(), ref_head.size());
    for (std::size_t i = 0; i < live_head.size(); ++i) {
        EXPECT_EQ(live_head[i].candidates, ref_head[i].candidates)
            << "goal " << i;
        EXPECT_EQ(live_head[i].answers, ref_head[i].answers)
            << "goal " << i;
        EXPECT_EQ(live_head[i].indexEntriesScanned,
                  ref_head[i].indexEntriesScanned)
            << "goal " << i;
        EXPECT_EQ(live_head[i].elapsed, ref_head[i].elapsed)
            << "goal " << i;
    }
    std::remove(wal_path.c_str());
}

// ---------------------------------------------------------------------
// Readers pinned to the head version the writer appends onto.  An
// assertz-only commit writes its clause, directory and index bytes in
// place behind the head's prefix of the shared storage, so a reader
// holding that head reads memory right next to the writer's.  Every
// read must see exactly its pinned generation, in all four modes and
// through kb::clausesFor; under TSan the test also proves the reads
// and the in-place appends race-free.
// ---------------------------------------------------------------------

TEST(LiveInterleavingTest, HeadPinnedReadersRaceInPlaceAppends)
{
    constexpr int kStream = 48;
    constexpr int kReaders = 2;
    constexpr crs::SearchMode kModes[] = {
        crs::SearchMode::SoftwareOnly, crs::SearchMode::Fs1Only,
        crs::SearchMode::Fs2Only, crs::SearchMode::TwoStage};
    kb::KbConfig config;
    config.largeThreshold = 2;
    kb::KnowledgeBase kb(config);
    kb.consult("edge(a, b).\nedge(b, c).\nedge(c, d).\n");
    kb.compile();
    const std::string wal_path =
        ::testing::TempDir() + "head_pinned_appends.wal";
    std::remove(wal_path.c_str());
    kb.enableLiveUpdates(wal_path);
    const crs::PredicateStore &store = kb.store();
    crs::ClauseRetrievalServer &server = kb.server();

    // Every symbol is interned here, before the threads start.
    term::TermReader reader(kb.symbols());
    term::TermWriter writer(kb.symbols());
    std::vector<std::string> texts;
    for (const char *t : {"edge(a, b)", "edge(b, c)", "edge(c, d)"}) {
        term::ParsedTerm p = reader.parseTerm(t);
        texts.push_back(writer.write(p.arena, p.root));
    }
    constexpr std::size_t kBase = 3;
    std::vector<term::Clause> stream;
    for (int i = 0; i < kStream; ++i) {
        stream.push_back(reader.parseClause(
            "edge(w" + std::to_string(i) + ", w" +
            std::to_string(i + 1) + ")."));
        texts.push_back(writer.write(stream.back().arena(),
                                     stream.back().head()));
    }
    term::ParsedTerm goal = reader.parseTerm("edge(X, Y)");

    // The clauses a reader got must be the first texts, in order.
    auto prefix_ok = [&](const std::vector<term::ClauseView> &got,
                         std::size_t want) {
        if (got.size() != want)
            return false;
        for (std::size_t i = 0; i < got.size(); ++i)
            if (writer.write(*got[i].arena, got[i].head) != texts[i])
                return false;
        return true;
    };

    std::atomic<bool> done{false};
    std::atomic<int> wrong{0};
    std::atomic<int> reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            do {
                const std::uint64_t g = store.headGeneration();
                const std::size_t want = kBase + g;
                for (crs::SearchMode mode : kModes) {
                    crs::RetrievalRequest request;
                    request.arena = &goal.arena;
                    request.goal = goal.root;
                    request.mode = mode;
                    request.snapshot = g;
                    crs::RetrievalResponse got = server.serve(request);
                    std::vector<term::ClauseView> clauses;
                    for (std::uint32_t ordinal : got.answers)
                        clauses.push_back(
                            got.version->decodedClause(ordinal));
                    const storage::ClauseFile &file =
                        got.version->clauses;
                    if (!prefix_ok(clauses, want) ||
                        file.clauseCount() != want ||
                        file.sourceText(want - 1) !=
                            texts[want - 1] + ".")
                        wrong.fetch_add(1);

                    // kb::clausesFor pins whatever head its retrieval
                    // resolves, at least generation g.
                    kb::RetrievedClauses kbc =
                        kb.clausesFor(goal.arena, goal.root, mode);
                    if (kbc.clauses.size() < want ||
                        !prefix_ok(kbc.clauses, kbc.clauses.size()))
                        wrong.fetch_add(1);
                }
                reads.fetch_add(1);
            } while (!done.load(std::memory_order_acquire));
        });
    }
    // Stream once every reader is reading, so commits land mid-read.
    while (reads.load() < kReaders)
        std::this_thread::yield();
    for (const term::Clause &clause : stream)
        kb.assertz(clause);
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(wrong.load(), 0) << "of " << reads.load() << " rounds";
    EXPECT_EQ(store.headGeneration(), static_cast<std::uint64_t>(kStream));
    EXPECT_TRUE(prefix_ok(kb.clausesFor(goal.arena, goal.root).clauses,
                          kBase + kStream));
    std::remove(wal_path.c_str());
}

// ---------------------------------------------------------------------
// Predicate enumeration beside commits that register new predicates:
// PredicateStore::predicates() (what NetServer's health reply counts)
// must hand out a consistent snapshot while publish() appends to the
// enumeration order.
// ---------------------------------------------------------------------

TEST(LiveInterleavingTest, EnumerationRacesBrandNewPredicateCommits)
{
    constexpr std::size_t kCommits = 32;
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    for (auto &c : reader.parseProgram("edge(a, b).\n"))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    const std::string wal_path =
        ::testing::TempDir() + "enumeration_race.wal";
    std::remove(wal_path.c_str());
    crs::LiveStore live(store, sym, wal_path);

    // Each commit introduces a predicate the store has never seen;
    // every symbol is interned here, before the threads start.
    std::vector<term::Clause> fresh;
    for (std::size_t i = 0; i < kCommits; ++i)
        fresh.push_back(reader.parseClause(
            "new" + std::to_string(i) + "(a, b)."));

    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (const term::Clause &clause : fresh)
            live.assertz(clause);
        done.store(true, std::memory_order_release);
    });
    const term::PredicateId edge{sym.lookup("edge"), 2};
    // Each snapshot only grows and always starts with the base.
    std::size_t seen = 1;
    bool consistent = true;
    do {
        const std::vector<term::PredicateId> preds = store.predicates();
        consistent = consistent && preds.size() >= seen &&
                     preds.size() <= kCommits + 1 && preds.front() == edge;
        seen = preds.size();
    } while (!done.load(std::memory_order_acquire));
    writer.join();
    EXPECT_TRUE(consistent);

    const std::vector<term::PredicateId> preds = store.predicates();
    ASSERT_EQ(preds.size(), kCommits + 1);
    for (std::size_t i = 0; i < kCommits; ++i)
        EXPECT_EQ(preds[i + 1], (term::PredicateId{
                                    sym.lookup("new" + std::to_string(i)),
                                    2}));
    std::remove(wal_path.c_str());
}

// ---------------------------------------------------------------------
// kb torn read: clausesFor resolves candidate ordinals through the
// version its retrieval pinned, so a concurrent asserta — which shifts
// every ordinal by one — can never splice two generations together.
// ---------------------------------------------------------------------

TEST(KbTornReadTest, ClausesForReturnsSomeCommittedGeneration)
{
    constexpr int kCommits = 40;
    constexpr int kReaders = 3;
    kb::KbConfig config;
    config.largeThreshold = 2;
    kb::KnowledgeBase kb(config);
    kb.consult("q(a, 0).\nq(b, 0).\nq(c, 0).\n");
    kb.compile();
    const std::string wal_path = ::testing::TempDir() + "kb_torn_read.wal";
    std::remove(wal_path.c_str());
    kb.enableLiveUpdates(wal_path);

    // Everything that interns a symbol happens here, before the
    // threads start: the writer's commits then only look symbols up.
    term::TermReader reader(kb.symbols());
    term::TermWriter writer(kb.symbols());
    std::vector<term::Clause> pushed;
    std::vector<std::string> pushed_text;
    for (int k = 1; k <= kCommits; ++k) {
        pushed.push_back(reader.parseClause(
            "q(g" + std::to_string(k) + ", " + std::to_string(k) + ")."));
        pushed_text.push_back(writer.write(pushed.back().arena(),
                                           pushed.back().head()));
    }
    // Generation k lists q(gk, k), ..., q(g1, 1), then the base.
    std::vector<std::string> base;
    for (const char *t : {"q(a, 0)", "q(b, 0)", "q(c, 0)"}) {
        term::ParsedTerm p = reader.parseTerm(t);
        base.push_back(writer.write(p.arena, p.root));
    }
    auto generation = [&](int k) {
        std::vector<std::string> list;
        for (int i = k; i >= 1; --i)
            list.push_back(pushed_text[static_cast<std::size_t>(i - 1)]);
        list.insert(list.end(), base.begin(), base.end());
        return list;
    };
    term::ParsedTerm goal = reader.parseTerm("q(X, Y)");

    std::atomic<bool> done{false};
    std::atomic<int> torn{0};
    std::atomic<int> reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                kb::RetrievedClauses got =
                    kb.clausesFor(goal.arena, goal.root);
                std::vector<std::string> list;
                for (const term::ClauseView &c : got.clauses)
                    list.push_back(writer.write(*c.arena, c.head));
                const int k = static_cast<int>(list.size()) - 3;
                if (k < 0 || k > kCommits || list != generation(k))
                    torn.fetch_add(1);
                reads.fetch_add(1);
            }
        });
    }
    for (const term::Clause &clause : pushed)
        kb.asserta(clause);
    // Let the readers observe the final generation too.
    while (reads.load() < 50 * kReaders)
        std::this_thread::yield();
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(torn.load(), 0) << "of " << reads.load() << " reads";
    EXPECT_EQ(kb.clausesFor(goal.arena, goal.root).clauses.size(),
              static_cast<std::size_t>(kCommits) + 3);
    std::remove(wal_path.c_str());
}

} // namespace
} // namespace clare
