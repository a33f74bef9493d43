/**
 * @file
 * The server's one cache, the L3 goal-result cache (ctest label:
 * cache).
 *
 * crs::GoalCache: a hit replays the full response payload
 * bit-identically while charging only the modeled cache lookup;
 * entries invalidate per predicate when a crs::LiveStore commits.
 *
 * Invariants: every miss, cold or bypassed request is bit-identical
 * to the same request on a cache-disabled server, ticks included, and
 * a batch equals a serve() loop.  storage::DiskModel::modelRead is the
 * plain analytic disk timing.  These tests also carry the concurrency
 * coverage the tier-1 TSan stage runs (-DCLARE_SANITIZE=thread,
 * ctest -L cache).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "fs1/fs1_engine.hh"
#include "net/wire.hh"
#include "storage/disk_model.hh"
#include "support/lru.hh"
#include "support/thread_pool.hh"
#include "term/canonical.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// support::LruCache — the goal cache's substrate.
// ---------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed)
{
    support::LruCache<int, std::string> cache(2);
    EXPECT_FALSE(cache.put(1, "one"));
    EXPECT_FALSE(cache.put(2, "two"));
    EXPECT_TRUE(cache.put(3, "three"));   // evicts 1
    EXPECT_EQ(cache.get(1), nullptr);
    ASSERT_NE(cache.get(2), nullptr);
    EXPECT_EQ(*cache.get(3), "three");
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, GetPromotesToMostRecent)
{
    support::LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_NE(cache.get(1), nullptr);     // 2 is now least-recent
    cache.put(3, 30);                     // evicts 2
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
}

TEST(LruCacheTest, PutOverwritesWithoutEviction)
{
    support::LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    EXPECT_FALSE(cache.put(1, 11));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(*cache.get(1), 11);
}

TEST(LruCacheTest, CapacityZeroIsInertNoop)
{
    support::LruCache<int, int> cache(0);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.put(1, 10));
    EXPECT_EQ(cache.get(1), nullptr);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, EraseIfRemovesMatchingEntries)
{
    support::LruCache<int, int> cache(8);
    for (int i = 0; i < 6; ++i)
        cache.put(i, i * 10);
    std::size_t removed =
        cache.eraseIf([](int key, int) { return key % 2 == 0; });
    EXPECT_EQ(removed, 3u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
}

// ---------------------------------------------------------------------
// term::canonicalKey — the renaming-invariant cache key.
// ---------------------------------------------------------------------

class CanonicalKeyTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};

    std::string
    key(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return term::canonicalKey(t.arena, t.root);
    }

    std::uint64_t
    hash(const std::string &text)
    {
        term::ParsedTerm t = reader.parseTerm(text);
        return term::canonicalHash(t.arena, t.root);
    }
};

TEST_F(CanonicalKeyTest, RenamedVariablesShareOneKey)
{
    EXPECT_EQ(key("p(X, Y)"), key("p(A, B)"));
    EXPECT_EQ(key("f(X, g(X, Z))"), key("f(Q, g(Q, R))"));
}

TEST_F(CanonicalKeyTest, SharedVariablesAreDistinguished)
{
    EXPECT_NE(key("p(X, X)"), key("p(X, Y)"));
    EXPECT_EQ(key("p(X, X)"), key("p(B, B)"));
}

TEST_F(CanonicalKeyTest, AnonymousVariablesAreAlwaysFresh)
{
    // _ never co-refers, so p(_, _) has the shape of p(X, Y).
    EXPECT_EQ(key("p(_, _)"), key("p(X, Y)"));
    EXPECT_NE(key("p(_, _)"), key("p(X, X)"));
}

TEST_F(CanonicalKeyTest, GroundContentIsDistinguished)
{
    EXPECT_NE(key("p(a, X)"), key("p(b, X)"));
    EXPECT_NE(key("p(1, X)"), key("p(2, X)"));
    EXPECT_NE(key("p(a)"), key("q(a)"));
    EXPECT_NE(key("p(a)"), key("p(a, b)"));
    EXPECT_NE(key("p([a, b])"), key("p([a | T])"));
}

TEST_F(CanonicalKeyTest, HashFollowsKeyEquality)
{
    EXPECT_EQ(hash("p(X, Y)"), hash("p(A, B)"));
    EXPECT_NE(hash("p(a, X)"), hash("p(b, X)"));
}

// ---------------------------------------------------------------------
// The disk read model the server charges.
// ---------------------------------------------------------------------

TEST(DiskCacheTest, DisabledModelReadMatchesAnalyticTiming)
{
    storage::DiskModel disk(storage::DiskGeometry::fujitsuM2351A());
    storage::ReadTiming rt = disk.modelRead(5000);
    EXPECT_EQ(rt.access, disk.accessTime());
    EXPECT_EQ(rt.transfer, disk.transferTime(5000));
    EXPECT_EQ(rt.total(), disk.accessTime() + disk.transferTime(5000));
    // An empty read costs nothing, not even the seek.
    EXPECT_EQ(disk.modelRead(0).total(), 0u);
}

// ---------------------------------------------------------------------
// FS1 shard spans telescope to the merged busy time (satellite fix:
// span ticks and busyTime derive from one cumulative conversion).
// ---------------------------------------------------------------------

TEST(Fs1SpanAccountingTest, ShardSpanTicksSumToMergedBusyTime)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 777;   // odd count → uneven shards
    spec.seed = 5;
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
    support::ThreadPool pool(3);
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::Observer obs{&tracer, &metrics};
    for (std::uint32_t shards : {1u, 3u, 7u}) {
        tracer.clear();
        fs1::Fs1Result result =
            engine.search(stored.index, stored.sliced.get(), nullptr, 0,
                          sig, &pool, shards, obs);
        Tick span_sum = 0;
        for (const obs::SpanRecord &span : tracer.snapshot())
            if (span.name == "fs1.shard")
                span_sum += span.simTicks;
        EXPECT_EQ(span_sum, result.busyTime) << shards << " shards";
    }
}

// ---------------------------------------------------------------------
// The server's goal cache.
// ---------------------------------------------------------------------

class ServerCacheTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::Program program;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<term::TermReader> reader;
    std::vector<term::ParsedTerm> goals;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 200;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.varProb = 0.1;
        spec.seed = 41;
        program = kbgen.generate(spec);
        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();
        reader = std::make_unique<term::TermReader>(sym);
        for (const char *text :
             {"p0(a1, X)", "p0(a2, X)", "p1(a3, X)", "p1(a4, X)",
              "p2(a5, X)", "p2(a6, X)"}) {
            goals.push_back(reader->parseTerm(text));
        }
    }

    crs::CrsConfig
    cachedConfig() const
    {
        crs::CrsConfig config;
        config.cache.enabled = true;
        return config;
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

    static std::uint64_t
    counter(const crs::ClauseRetrievalServer &server,
            const std::string &name)
    {
        for (const auto &c : server.metrics().counters())
            if (c.name == name)
                return c.value;
        return 0;
    }

    /** Payload equality: every field full unification depends on. */
    static void
    expectSamePayload(const crs::RetrievalResponse &a,
                      const crs::RetrievalResponse &b)
    {
        EXPECT_EQ(a.mode, b.mode);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.answers, b.answers);
        EXPECT_EQ(a.indexEntriesScanned, b.indexEntriesScanned);
        EXPECT_EQ(a.fs1Hits, b.fs1Hits);
        EXPECT_EQ(a.clausesExamined, b.clausesExamined);
        EXPECT_EQ(a.filterOps, b.filterOps);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.resultOverflow, b.resultOverflow);
        EXPECT_EQ(a.satisfiersRequeued, b.satisfiersRequeued);
    }

    /** Full bit-identity: payload plus every timing field. */
    static void
    expectIdentical(const crs::RetrievalResponse &a,
                    const crs::RetrievalResponse &b)
    {
        expectSamePayload(a, b);
        EXPECT_EQ(a.breakdown.cacheTime, b.breakdown.cacheTime);
        EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime);
        EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime);
        EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime);
        EXPECT_EQ(a.elapsed, b.elapsed);
    }
};

TEST_F(ServerCacheTest, ColdRequestIsBitIdenticalToCacheDisabledServer)
{
    auto plain = makeServer();
    auto cached = makeServer(cachedConfig());
    for (const term::ParsedTerm &goal : goals) {
        crs::RetrievalResponse a = plain->serve(request(goal));
        crs::RetrievalResponse b = cached->serve(request(goal));
        expectIdentical(a, b);
        EXPECT_EQ(b.breakdown.cacheTime, 0u);
    }
}

TEST_F(ServerCacheTest, HitAfterMissReplaysPayloadBitIdentically)
{
    auto server = makeServer(cachedConfig());
    crs::RetrievalResponse miss = server->serve(request(goals[0]));
    crs::RetrievalResponse hit = server->serve(request(goals[0]));
    expectSamePayload(miss, hit);
    EXPECT_EQ(hit.breakdown.cacheTime,
              server->config().cache.goalHitCost);
    EXPECT_EQ(hit.breakdown.indexTime, 0u);
    EXPECT_EQ(hit.breakdown.filterTime, 0u);
    EXPECT_EQ(hit.breakdown.hostUnifyTime, 0u);
    EXPECT_EQ(hit.elapsed, hit.breakdown.serviceTime());
    EXPECT_LT(hit.elapsed, miss.elapsed);
    EXPECT_EQ(counter(*server, "crs.cache.hits"), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.misses"), 1u);
}

TEST_F(ServerCacheTest, RenamedGoalHitsTheSameEntry)
{
    auto server = makeServer(cachedConfig());
    term::ParsedTerm a = reader->parseTerm("p0(a1, Xvar)");
    term::ParsedTerm b = reader->parseTerm("p0(a1, Other)");
    crs::RetrievalResponse first = server->serve(request(a));
    crs::RetrievalResponse second = server->serve(request(b));
    expectSamePayload(first, second);
    EXPECT_EQ(counter(*server, "crs.cache.hits"), 1u);
}

TEST_F(ServerCacheTest, BypassOnWarmServerMatchesCacheDisabledServer)
{
    auto plain = makeServer();
    auto cached = makeServer(cachedConfig());
    cached->serve(request(goals[0]));     // warm every level
    cached->serve(request(goals[0]));
    crs::RetrievalRequest bypass = request(goals[0]);
    bypass.bypassCache = true;
    crs::RetrievalResponse a = plain->serve(request(goals[0]));
    crs::RetrievalResponse b = cached->serve(bypass);
    expectIdentical(a, b);
    // And the bypass neither consulted nor refreshed the caches: the
    // next normal request is still a hit.
    std::uint64_t hits = counter(*cached, "crs.cache.hits");
    cached->serve(request(goals[0]));
    EXPECT_EQ(counter(*cached, "crs.cache.hits"), hits + 1);
}

TEST_F(ServerCacheTest, EveryMissIsBitIdenticalToCacheDisabledServer)
{
    // The goal cache is the only cache: a request it misses runs the
    // cache-off pipeline unchanged, so its response — every modeled
    // tick included — equals a cache-disabled server's.  The sequence
    // covers repeats, a variable-renamed variant, one goal served in
    // two modes, and evictions at capacity 2; each step names the
    // outcome the LRU must produce.
    crs::CrsConfig config = cachedConfig();
    config.cache.goalCapacity = 2;
    auto server = makeServer(config);
    auto plain = makeServer();
    term::ParsedTerm renamed = reader->parseTerm("p0(a1, Renamed)");
    constexpr auto kTwo = crs::SearchMode::TwoStage;
    constexpr auto kFs1 = crs::SearchMode::Fs1Only;
    struct Step
    {
        const term::ParsedTerm *goal;
        crs::SearchMode mode;
        bool hit;
    };
    const Step steps[] = {
        {&goals[0], kTwo, false},
        {&goals[0], kTwo, true},
        {&renamed, kTwo, true},
        {&goals[0], kFs1, false},  // same goal, second mode
        {&goals[2], kTwo, false},  // evicts goals[0] two-stage
        {&goals[0], kTwo, false},  // evicts goals[0] fs1-only
        {&goals[0], kFs1, false},  // evicts goals[2]
        {&renamed, kFs1, true},
        {&goals[2], kTwo, false},  // evicts goals[0] two-stage
    };
    const Tick hit_cost = server->config().cache.goalHitCost;
    for (std::size_t i = 0; i < std::size(steps); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        const Step &step = steps[i];
        const std::uint64_t hits = counter(*server, "crs.cache.hits");
        crs::RetrievalResponse got =
            server->serve(request(*step.goal, step.mode));
        crs::RetrievalResponse want =
            plain->serve(request(*step.goal, step.mode));
        ASSERT_EQ(counter(*server, "crs.cache.hits"),
                  hits + (step.hit ? 1 : 0));
        if (step.hit) {
            expectSamePayload(want, got);
            EXPECT_EQ(got.breakdown.cacheTime, hit_cost);
            EXPECT_EQ(got.elapsed, hit_cost);
        } else {
            expectIdentical(want, got);
        }
    }
    EXPECT_EQ(counter(*server, "crs.cache.misses"), 6u);
    EXPECT_EQ(counter(*server, "crs.cache.evictions"), 4u);
}

TEST_F(ServerCacheTest, LiveCommitInvalidatesOnlyItsPredicate)
{
    auto server = makeServer(cachedConfig());
    server->serve(request(goals[0]));     // p0
    server->serve(request(goals[2]));     // p1
    ASSERT_EQ(server->goalCacheSize(), 2u);

    const std::string wal_path =
        ::testing::TempDir() + "cache_live_commit.wal";
    std::remove(wal_path.c_str());
    crs::LiveStore live(*store, sym, wal_path);
    live.attachSink(server.get());
    EXPECT_EQ(live.assertz(reader->parseClause("p0(a1, a2).")), 1u);
    EXPECT_EQ(server->goalCacheSize(), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.invalidations"), 1u);

    // p0 recomputes; p1 still hits.
    std::uint64_t misses = counter(*server, "crs.cache.misses");
    crs::RetrievalResponse again = server->serve(request(goals[0]));
    EXPECT_EQ(counter(*server, "crs.cache.misses"), misses + 1);
    EXPECT_EQ(again.breakdown.cacheTime, 0u);
    std::uint64_t hits = counter(*server, "crs.cache.hits");
    server->serve(request(goals[2]));
    EXPECT_EQ(counter(*server, "crs.cache.hits"), hits + 1);
    std::remove(wal_path.c_str());
}

TEST_F(ServerCacheTest, AbortedLiveUpdateInvalidatesNothing)
{
    auto server = makeServer(cachedConfig());
    server->serve(request(goals[0]));
    ASSERT_EQ(server->goalCacheSize(), 1u);

    const std::string wal_path =
        ::testing::TempDir() + "cache_live_abort.wal";
    std::remove(wal_path.c_str());
    crs::LiveStore live(*store, sym, wal_path);
    live.attachSink(server.get());
    {
        crs::LiveStore::Update txn = live.begin();
        txn.assertz(reader->parseClause("p0(a1, a2)."));
        txn.abort();
    }
    {
        // Destroying an uncommitted update aborts it.
        crs::LiveStore::Update txn = live.begin();
        txn.assertz(reader->parseClause("p0(a1, a2)."));
    }
    EXPECT_EQ(store->headGeneration(), 0u);
    EXPECT_EQ(server->goalCacheSize(), 1u);
    EXPECT_EQ(counter(*server, "crs.cache.invalidations"), 0u);
    std::uint64_t hits = counter(*server, "crs.cache.hits");
    server->serve(request(goals[0]));
    EXPECT_EQ(counter(*server, "crs.cache.hits"), hits + 1);
    std::remove(wal_path.c_str());
}

TEST_F(ServerCacheTest, EvictionUnderCapacityPressure)
{
    crs::CrsConfig config = cachedConfig();
    config.cache.goalCapacity = 2;
    auto server = makeServer(config);
    server->serve(request(goals[0]));
    server->serve(request(goals[1]));
    server->serve(request(goals[2]));     // evicts goals[0]
    EXPECT_EQ(server->goalCacheSize(), 2u);
    EXPECT_EQ(counter(*server, "crs.cache.evictions"), 1u);
    std::uint64_t misses = counter(*server, "crs.cache.misses");
    server->serve(request(goals[0]));     // recomputes
    EXPECT_EQ(counter(*server, "crs.cache.misses"), misses + 1);
}

TEST_F(ServerCacheTest, BatchEqualsServeLoopWithCachesOn)
{
    // One batch exercising every cache interaction inside a batch: a
    // repeated goal (fill, then a hit later in the same batch), a
    // variable-renamed variant of it (same canonical key), one goal in
    // two modes (two keys), and a bypassCache item.  serveBatch() must
    // answer each item exactly as a serve() loop on an identically
    // fresh server.
    term::ParsedTerm renamed = reader->parseTerm("p0(a1, Renamed)");
    std::vector<crs::RetrievalRequest> batch;
    batch.push_back(request(goals[0]));
    batch.push_back(request(goals[2]));
    batch.push_back(request(goals[0]));
    batch.push_back(request(renamed));
    batch.push_back(request(goals[2], crs::SearchMode::Fs1Only));
    crs::RetrievalRequest bypass = request(goals[0]);
    bypass.bypassCache = true;
    batch.push_back(bypass);
    batch.push_back(request(goals[4], crs::SearchMode::Fs1Only));
    batch.push_back(request(goals[4], crs::SearchMode::TwoStage));

    auto batched = makeServer(cachedConfig());
    auto looped = makeServer(cachedConfig());
    std::vector<crs::RetrievalResponse> got = batched->serveBatch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        crs::RetrievalResponse want = looped->serve(batch[i]);
        EXPECT_EQ(net::encodeResponse(i, got[i]),
                  net::encodeResponse(i, want))
            << "item " << i;
    }

    // The batch really exercised the in-batch cache paths.
    EXPECT_EQ(counter(*batched, "crs.cache.hits"), 2u);
    for (const char *name : {"crs.cache.hits", "crs.cache.misses"}) {
        EXPECT_EQ(counter(*batched, name), counter(*looped, name))
            << name;
    }
}

TEST_F(ServerCacheTest, UnstoredPredicateFailsTheWholeBatch)
{
    // Validation runs over every item before any is served: a batch
    // whose last item names an unstored predicate throws a typed
    // error and leaves no trace — nothing counted, nothing cached.
    auto server = makeServer(cachedConfig());
    term::ParsedTerm missing = reader->parseTerm("nosuch(a1, X)");
    std::vector<crs::RetrievalRequest> batch;
    batch.push_back(request(goals[0]));
    batch.push_back(request(goals[2]));
    batch.push_back(request(missing));
    EXPECT_THROW(server->serveBatch(batch),
                 crs::PredicateNotStoredError);
    EXPECT_EQ(counter(*server, "crs.queries"), 0u);
    EXPECT_EQ(server->goalCacheSize(), 0u);

    // The server is unharmed: the valid prefix serves normally.
    batch.pop_back();
    std::vector<crs::RetrievalResponse> ok = server->serveBatch(batch);
    EXPECT_EQ(ok.size(), 2u);
    EXPECT_EQ(counter(*server, "crs.queries"), 2u);
}

TEST_F(ServerCacheTest, ConcurrentServesStayCorrectUnderSharedCaches)
{
    // The goal cache is shared mutable state under concurrent serve()
    // callers; TSan runs this via ctest -L cache.
    auto plain = makeServer();
    std::vector<crs::RetrievalResponse> expected;
    expected.reserve(goals.size());
    for (const term::ParsedTerm &goal : goals)
        expected.push_back(plain->serve(request(goal)));

    auto server = makeServer(cachedConfig());
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                std::size_t g = (t + r) % goals.size();
                crs::RetrievalResponse got =
                    server->serve(request(goals[g]));
                if (got.candidates != expected[g].candidates ||
                    got.answers != expected[g].answers) {
                    ++failures[t];
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
}

TEST_F(ServerCacheTest, CacheConfigValidation)
{
    crs::CrsConfig config = cachedConfig();
    config.cache.goalCapacity = 0;
    EXPECT_THROW(makeServer(config), crs::ConfigError);
    config = cachedConfig();
    config.cache.goalHitCost = 2 * kSecond;
    EXPECT_THROW(makeServer(config), crs::ConfigError);
    // Disabled caches skip the capacity checks entirely.
    config = crs::CrsConfig{};
    config.cache.goalCapacity = 0;
    EXPECT_NO_THROW(makeServer(config));
}

} // namespace
} // namespace clare
