/**
 * @file
 * Zero-copy serving memory (ctest labels: arena, tsan).
 *
 * support::Arena — the block-chained bump allocator behind the hot
 * serving path: 8-byte alignment, block chaining (including requests
 * past the block size), O(1) reset that retains the high-water
 * memory, in-place extension of the newest allocation, and offset
 * handles that survive block chaining.  ArenaVector rides on top:
 * growth preserves contents, resize zero-fills, reuse after reset is
 * allocation-free.
 *
 * term::TermArena — reset() rewinds without freeing, so a warmed
 * arena decodes an identical goal with a stable memory footprint, and
 * deep copies stay independent of the source.
 *
 * crs response blobs — the pre-encoded wire payload the goal cache
 * shares: encode/decode round trip, id patching is byte-identical to
 * encoding with that id, and encodeFramePatched produces exactly the
 * frame encodeFrame would build from the patched payload.
 *
 * End-to-end oracles: warm (cache hit) responses equal cold responses
 * on every answer/candidate, and the wire path — which sends the
 * cached blob verbatim — stays bit-identical (answers AND every
 * modeled tick) to the local front door, cold and warm, for single
 * requests and wire batches of 1 and 4.  With -DCLARE_COUNT_ALLOCS=ON a
 * steady-state warm hit is also checked to allocate (nearly) nothing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crs/response_blob.hh"
#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/server.hh"
#include "net/term_codec.hh"
#include "net/wire.hh"
#include "support/alloc_counter.hh"
#include "support/arena.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// support::Arena — the bump allocator.
// ---------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreEightByteAligned)
{
    support::Arena arena;
    for (std::size_t n : {1u, 3u, 8u, 13u, 64u, 100u}) {
        void *p = arena.alloc(n);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u)
            << "allocation of " << n << " bytes";
    }
    // Rounding is visible in the accounting: 1+3+8+13+64+100 rounded
    // per allocation to 8 is 8+8+8+16+64+104.
    EXPECT_EQ(arena.usedBytes(), 8u + 8 + 8 + 16 + 64 + 104);
}

TEST(ArenaTest, BlocksChainAndOversizedRequestsGetTheirOwn)
{
    support::Arena arena(64);
    EXPECT_EQ(arena.blockCount(), 0u);
    arena.alloc(48);
    EXPECT_EQ(arena.blockCount(), 1u);
    arena.alloc(48); // does not fit the 64-byte block: chain
    EXPECT_EQ(arena.blockCount(), 2u);
    void *big = arena.alloc(1000); // past block size: own block
    EXPECT_EQ(arena.blockCount(), 3u);
    ASSERT_NE(big, nullptr);
    std::memset(big, 0xab, 1000);
    EXPECT_GE(arena.capacityBytes(), 64u + 64 + 1000);
}

TEST(ArenaTest, ResetRetainsBlocksAndReusesAddresses)
{
    support::Arena arena(128);
    void *first = arena.alloc(40);
    arena.alloc(200);
    std::size_t capacity = arena.capacityBytes();
    std::size_t blocks = arena.blockCount();

    arena.reset();
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(arena.capacityBytes(), capacity);
    EXPECT_EQ(arena.blockCount(), blocks);

    // The warmed arena hands the same memory back, no fresh blocks.
    EXPECT_EQ(arena.alloc(40), first);
    arena.alloc(200);
    EXPECT_EQ(arena.capacityBytes(), capacity);
    EXPECT_EQ(arena.blockCount(), blocks);
}

TEST(ArenaTest, TryExtendGrowsOnlyTheNewestAllocation)
{
    support::Arena arena(256);
    void *a = arena.alloc(16);
    EXPECT_TRUE(arena.tryExtend(a, 16, 64));
    EXPECT_EQ(arena.usedBytes(), 64u);

    void *b = arena.alloc(16);
    EXPECT_FALSE(arena.tryExtend(a, 64, 128)) << "a is no longer last";
    EXPECT_TRUE(arena.tryExtend(b, 16, 32));
    EXPECT_FALSE(arena.tryExtend(b, 32, 4096)) << "past block capacity";
}

TEST(ArenaTest, TryExtendRejectsPointersFromOlderBlocks)
{
    // Regression: a pointer into an older block whose tail happens to
    // abut the current block's cursor (allocators without chunk
    // headers place blocks back to back) must never extend — the
    // cursor math would "succeed" while the write ran past the older
    // block's real end into foreign heap memory.  tryExtend must
    // bounds-check the pointer against the CURRENT block, whatever
    // the surrounding heap layout.
    support::Arena arena(64);
    void *a = arena.alloc(48); // nearly fills block 0
    void *b = arena.alloc(48); // chains block 1
    ASSERT_NE(a, b);
    for (std::size_t old_bytes : {8u, 16u, 48u})
        for (std::size_t new_bytes : {16u, 48u, 64u})
            if (new_bytes > old_bytes)
                EXPECT_FALSE(arena.tryExtend(a, old_bytes, new_bytes))
                    << "old block pointer, old=" << old_bytes
                    << " new=" << new_bytes;
    EXPECT_TRUE(arena.tryExtend(b, 48, 64));
}

TEST(ArenaTest, OffsetHandlesSurviveBlockChaining)
{
    support::Arena arena(64);
    std::vector<void *> ptrs;
    std::vector<support::Arena::Offset> offs;
    for (int i = 0; i < 16; ++i) {
        void *p = arena.alloc(24); // forces several chained blocks
        *static_cast<std::uint32_t *>(p) = static_cast<std::uint32_t>(i);
        ptrs.push_back(p);
        offs.push_back(arena.offsetOf(p));
    }
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(arena.at(offs[i]), ptrs[i]);
        EXPECT_EQ(*static_cast<std::uint32_t *>(arena.at(offs[i])),
                  static_cast<std::uint32_t>(i));
    }
}

TEST(ArenaVectorTest, GrowthPreservesContents)
{
    support::Arena arena(128);
    support::ArenaVector<std::uint32_t> v;
    for (std::uint32_t i = 0; i < 1000; ++i)
        v.push_back(arena, i * 3);
    ASSERT_EQ(v.size(), 1000u);
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(v[i], i * 3);
    EXPECT_EQ(v.back(), 999u * 3);
}

TEST(ArenaVectorTest, AppendAndResizeZeroFill)
{
    support::Arena arena;
    support::ArenaVector<std::uint16_t> v;
    std::uint16_t span[] = {7, 8, 9};
    v.append(arena, span, 3);
    v.resize(arena, 8);
    ASSERT_EQ(v.size(), 8u);
    EXPECT_EQ(v[0], 7u);
    EXPECT_EQ(v[2], 9u);
    for (std::size_t i = 3; i < 8; ++i)
        EXPECT_EQ(v[i], 0u) << "resize must zero-fill growth";
    v.resize(arena, 2);
    EXPECT_EQ(v.size(), 2u);
    v.append(arena, span, 3);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_EQ(v[2], 7u);
}

TEST(ArenaVectorTest, ReattachAfterResetReusesRetainedMemory)
{
    support::Arena arena;
    support::ArenaVector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 500; ++i)
        v.push_back(arena, i);
    std::size_t capacity = arena.capacityBytes();

    arena.reset();
    v.detach();
    for (std::uint64_t i = 0; i < 500; ++i)
        v.push_back(arena, i ^ 1);
    EXPECT_EQ(arena.capacityBytes(), capacity)
        << "the warmed arena must absorb the same workload";
    EXPECT_EQ(v[3], 2u);
}

// ---------------------------------------------------------------------
// term::TermArena on the bump arena.
// ---------------------------------------------------------------------

TEST(TermArenaResetTest, WarmedArenaRebuildsWithStableFootprint)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermArena arena;
    const char *text = "p(f(X, [1, 2, g(Y)]), h(X, Y), [a, b | T])";

    term::ParsedTerm parsed = reader.parseTerm(text);
    std::vector<std::uint8_t> wire =
        net::encodeGoal(parsed.arena, parsed.root);

    term::TermRef first =
        net::decodeGoal(wire, sym, arena, "test");
    EXPECT_TRUE(term::TermArena::equal(arena, first, parsed.arena, parsed.root));
    std::size_t footprint = arena.memoryFootprint();

    for (int round = 0; round < 32; ++round) {
        arena.reset();
        term::TermRef again = net::decodeGoal(wire, sym, arena, "test");
        EXPECT_TRUE(
            term::TermArena::equal(arena, again, parsed.arena, parsed.root));
    }
    EXPECT_EQ(arena.memoryFootprint(), footprint)
        << "reset must retain (and reuse) the high-water blocks";
}

TEST(TermArenaResetTest, DeepCopiesAreIndependentOfTheSource)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::ParsedTerm parsed = reader.parseTerm("p(f(X), g(X, Y), k)");
    term::ParsedTerm reference = reader.parseTerm("p(f(X), g(X, Y), k)");

    term::TermArena copy(parsed.arena);
    term::TermRef root = parsed.root;
    ASSERT_TRUE(term::TermArena::equal(copy, root, parsed.arena, parsed.root));

    // Resetting and rebuilding the source must not disturb the copy:
    // its nodes live in its own blocks, not the source's.
    parsed.arena.reset();
    net::decodeGoal(net::encodeGoal(reference.arena, reference.root),
                    sym, parsed.arena, "test");
    EXPECT_TRUE(
        term::TermArena::equal(copy, root, reference.arena, reference.root));

    term::TermArena recopy(copy);
    EXPECT_TRUE(term::TermArena::equal(recopy, root, reference.arena,
                            reference.root));
}

// ---------------------------------------------------------------------
// Relocatable response blobs.
// ---------------------------------------------------------------------

crs::RetrievalResponse
syntheticResponse()
{
    crs::RetrievalResponse r;
    r.mode = crs::SearchMode::TwoStage;
    r.candidates = {3, 5, 8, 13, 21};
    r.answers = {5, 13};
    r.indexEntriesScanned = 4096;
    r.fs1Hits = 5;
    r.clausesExamined = 5;
    for (std::size_t i = 0; i < r.filterOps.size(); ++i)
        r.filterOps[i] = 100 + 7 * i;
    r.breakdown.cacheTime = 2000;
    r.breakdown.indexTime = 0;
    r.breakdown.filterTime = 0;
    r.breakdown.hostUnifyTime = 0;
    r.elapsed = r.breakdown.serviceTime();
    r.degraded = true;
    r.corruptIndexPages = 2;
    r.resultOverflow = true;
    r.satisfiersRequeued = 9;
    return r;
}

TEST(ResponseBlobTest, RoundTripIsExact)
{
    crs::RetrievalResponse r = syntheticResponse();
    std::vector<std::uint8_t> blob =
        crs::encodeResponseBlob(0x1122334455667788ULL, r);
    ASSERT_GE(blob.size(), crs::kBlobMinBytes);

    crs::DecodedResponseBlob decoded =
        crs::decodeResponseBlob(blob.data(), blob.size(), "test");
    EXPECT_EQ(decoded.id, 0x1122334455667788ULL);
    EXPECT_TRUE(net::responsesIdentical(decoded.response, r));
    EXPECT_EQ(decoded.response.replayBlob, nullptr)
        << "decoding never fabricates a replay handle";
}

TEST(ResponseBlobTest, PatchedIdEqualsDirectEncoding)
{
    crs::RetrievalResponse r = syntheticResponse();
    std::shared_ptr<const std::vector<std::uint8_t>> baked =
        crs::bakeResponseBlob(r);
    ASSERT_NE(baked, nullptr);

    for (std::uint64_t id : {0ULL, 1ULL, 0xdeadbeefULL,
                             0xffffffffffffffffULL}) {
        std::vector<std::uint8_t> patched = *baked;
        crs::patchResponseBlobId(patched.data(), patched.size(), id);
        EXPECT_EQ(patched, crs::encodeResponseBlob(id, r))
            << "patching must be byte-identical to encoding, id "
            << id;
    }
}

TEST(ResponseBlobTest, BlobIsTheWireResponsePayloadVerbatim)
{
    crs::RetrievalResponse r = syntheticResponse();
    EXPECT_EQ(crs::encodeResponseBlob(42, r),
              net::encodeResponse(42, r))
        << "one format: the blob IS the Response payload";
}

TEST(ResponseBlobTest, PatchedFrameEqualsFrameOfPatchedPayload)
{
    crs::RetrievalResponse r = syntheticResponse();
    std::vector<std::uint8_t> blob = crs::encodeResponseBlob(0, r);

    for (std::uint64_t id : {7ULL, 0x0123456789abcdefULL}) {
        std::vector<std::uint8_t> patched = blob;
        crs::patchResponseBlobId(patched.data(), patched.size(), id);
        std::vector<std::uint8_t> reference;
        net::encodeFrame(net::FrameType::Response, patched, reference);

        std::vector<std::uint8_t> fast;
        net::encodeFramePatched(net::FrameType::Response, blob.data(),
                                blob.size(), crs::kBlobIdOffset, id,
                                fast);
        EXPECT_EQ(fast, reference) << "id " << id;
    }
}

// ---------------------------------------------------------------------
// End-to-end: warm vs cold, blob path vs vector path, local vs wire.
// ---------------------------------------------------------------------

/** Every field of the exactness contract, ticks included. */
void
expectIdentical(const crs::RetrievalResponse &a,
                const crs::RetrievalResponse &b,
                const std::string &what)
{
    EXPECT_TRUE(net::responsesIdentical(a, b)) << what;
    EXPECT_EQ(a.breakdown.cacheTime, b.breakdown.cacheTime) << what;
    EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime) << what;
    EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime) << what;
    EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime)
        << what;
    EXPECT_EQ(a.elapsed, b.elapsed) << what;
}

class ZeroCopyServingTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_arena_store";
    term::SymbolTable sym_;
    term::Program program_;
    std::vector<workload::GeneratedQuery> queries_;
    std::unique_ptr<crs::PredicateStore> store_;

    void
    SetUp() override
    {
        std::filesystem::remove_all(dir_);
        workload::KbGenerator kbgen(sym_);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 64;
        spec.arityMin = 2;
        spec.arityMax = 3;
        spec.atomVocabulary = 32;
        spec.seed = 23;
        program_ = kbgen.generate(spec);

        workload::QuerySpec qspec;
        qspec.seed = 11;
        qspec.boundArgProb = 0.7;
        workload::QueryGenerator qgen(sym_, qspec);
        Rng rng(3);
        for (int i = 0; i < 8; ++i) {
            const auto &pred = program_.predicates()[
                rng.below(program_.predicates().size())];
            queries_.push_back(qgen.generate(program_, pred));
        }

        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program_);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    static crs::CrsConfig
    cachedConfig()
    {
        crs::CrsConfig config;
        config.cache.enabled = true;
        return config;
    }

    static crs::RetrievalRequest
    request(const workload::GeneratedQuery &q)
    {
        crs::RetrievalRequest r;
        r.arena = &q.arena;
        r.goal = q.goal;
        return r;
    }
};

TEST_F(ZeroCopyServingTest, WarmHitsKeepTheColdAnswerSet)
{
    crs::ClauseRetrievalServer server(sym_, *store_, cachedConfig());
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalResponse cold = server.serve(request(q));
        EXPECT_EQ(cold.replayBlob, nullptr)
            << "a miss never carries a replay blob";
        crs::RetrievalResponse warm = server.serve(request(q));
        EXPECT_EQ(warm.candidates, cold.candidates);
        EXPECT_EQ(warm.answers, cold.answers);
        EXPECT_EQ(warm.mode, cold.mode);
        EXPECT_EQ(warm.breakdown.cacheTime,
                  server.config().cache.goalHitCost);
        ASSERT_NE(warm.replayBlob, nullptr)
            << "a warm serve() hit hands back the baked blob";

        // The blob the cache would send IS the warm response.
        crs::DecodedResponseBlob decoded = crs::decodeResponseBlob(
            warm.replayBlob->data(), warm.replayBlob->size(), "test");
        expectIdentical(decoded.response, warm, "blob vs vector");
    }
}

TEST_F(ZeroCopyServingTest, WirePathStaysBitIdenticalColdAndWarm)
{
    // Two servers over the same persisted store: the local reference
    // and the networked twin, caches aligned by serving the identical
    // sequence.
    crs::ClauseRetrievalServer local(sym_, *store_, cachedConfig());
    term::SymbolTable net_sym;
    crs::PredicateStore net_store = crs::loadStore(dir_, net_sym);
    crs::ClauseRetrievalServer backend(net_sym, net_store,
                                       cachedConfig());
    net::NetServer server(net_sym, net_store, backend);
    server.start();
    net::NetClient client(server.port(), "arena-test");

    for (int round = 0; round < 3; ++round) {
        // Round 0 is cold (vector encode path), rounds 1+ are warm
        // (blob fast path on the wire side).
        for (const workload::GeneratedQuery &q : queries_) {
            crs::RetrievalResponse wire = client.serve(request(q));
            crs::RetrievalResponse ref = local.serve(request(q));
            expectIdentical(wire, ref,
                            "single, round " + std::to_string(round));
        }
    }
    server.stop();
}

TEST_F(ZeroCopyServingTest, BatchWirePathStaysBitIdenticalColdAndWarm)
{
    for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
        crs::ClauseRetrievalServer local(sym_, *store_, cachedConfig());
        term::SymbolTable net_sym;
        crs::PredicateStore net_store = crs::loadStore(dir_, net_sym);
        crs::ClauseRetrievalServer backend(net_sym, net_store,
                                           cachedConfig());
        net::NetServer server(net_sym, net_store, backend);
        server.start();
        net::NetClient client(server.port(), "arena-test");

        for (int round = 0; round < 3; ++round) {
            for (std::size_t at = 0; at + width <= queries_.size();
                 at += width) {
                std::vector<crs::RetrievalRequest> batch;
                for (std::size_t i = 0; i < width; ++i)
                    batch.push_back(request(queries_[at + i]));
                std::vector<crs::RetrievalResponse> wire =
                    client.serveBatch(batch);
                std::vector<crs::RetrievalResponse> ref =
                    local.serveBatch(batch);
                ASSERT_EQ(wire.size(), ref.size());
                for (std::size_t i = 0; i < wire.size(); ++i)
                    expectIdentical(wire[i], ref[i],
                                    "batch item " + std::to_string(i) +
                                        ", width " +
                                        std::to_string(width) +
                                        ", round " +
                                        std::to_string(round));
            }
        }
        server.stop();
    }
}

TEST_F(ZeroCopyServingTest, SteadyStateWarmHitsAllocateAlmostNothing)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    crs::ClauseRetrievalServer server(sym_, *store_, cachedConfig());
    const workload::GeneratedQuery &q = queries_.front();

    std::uint64_t before = support::allocationCount();
    crs::RetrievalResponse cold = server.serve(request(q));
    std::uint64_t cold_allocs = support::allocationCount() - before;

    // Warm up past the first hit so every buffer reaches its
    // high-water capacity, then measure the steady state.
    for (int i = 0; i < 8; ++i)
        server.serve(request(q));
    constexpr int kReqs = 64;
    before = support::allocationCount();
    for (int i = 0; i < kReqs; ++i) {
        crs::RetrievalResponse warm = server.serve(request(q));
        ASSERT_NE(warm.replayBlob, nullptr);
    }
    std::uint64_t warm_allocs =
        (support::allocationCount() - before) / kReqs;

    // A warm hit copies the cached entry (the response's answer and
    // candidate vectors) and nothing else — single digits of
    // allocations against a cold serve's hundreds.
    EXPECT_LE(warm_allocs, 8u)
        << "steady-state warm hit allocations per request";
    EXPECT_LT(warm_allocs * 4, cold_allocs)
        << "warm hits must be far below the cold path (cold = "
        << cold_allocs << ")";
}

TEST(ColdServeAllocationTest, AllocationsDoNotScaleWithCandidates)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    // One predicate where p(hot, X) passes ~200 FS1 candidates and
    // p(cold, X) passes 2: a cold FS1-mode serve of the first may
    // allocate only a small constant more than the second (candidates
    // unify against pre-decoded heads, not re-parsed text).
    term::SymbolTable sym;
    term::TermReader reader(sym);
    std::string text;
    for (int i = 0; i < 200; ++i)
        text += "p(hot, v" + std::to_string(i) + ").\n";
    text += "p(cold, w0).\np(cold, w1).\n";
    for (int i = 0; i < 300; ++i)
        text += "p(k" + std::to_string(i) + ", u" + std::to_string(i) +
            ").\n";
    term::Program program;
    for (auto &c : reader.parseProgram(text))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::ClauseRetrievalServer server(sym, store);

    term::ParsedTerm warm = reader.parseTerm("p(k7, X)");
    term::ParsedTerm hot = reader.parseTerm("p(hot, X)");
    term::ParsedTerm few = reader.parseTerm("p(cold, X)");
    auto serve = [&](const term::ParsedTerm &goal) {
        crs::RetrievalRequest request;
        request.arena = &goal.arena;
        request.goal = goal.root;
        request.mode = crs::SearchMode::Fs1Only;
        return server.serve(request);
    };
    // Registers the lazily created per-mode metrics.
    serve(warm);

    std::uint64_t before = support::allocationCount();
    crs::RetrievalResponse few_r = serve(few);
    const std::uint64_t few_allocs = support::allocationCount() - before;
    before = support::allocationCount();
    crs::RetrievalResponse hot_r = serve(hot);
    const std::uint64_t hot_allocs = support::allocationCount() - before;

    EXPECT_EQ(few_r.answers.size(), 2u);
    EXPECT_GE(hot_r.candidates.size(), 200u);
    EXPECT_EQ(hot_r.answers.size(), 200u);
    EXPECT_LE(hot_allocs, few_allocs + 4)
        << "cold serve allocations: " << hot_allocs << " for "
        << hot_r.candidates.size() << " candidates vs " << few_allocs
        << " for " << few_r.candidates.size();
}

TEST(ColdServeAllocationTest, CacheOnMissAddsOnlyTheGoalCacheFill)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    // A goal-cache miss runs the cache-off pipeline, then builds the
    // goal key and admits one hit-shaped entry with its baked blob.
    // Nothing else may ride the miss path, so an FS1-only miss on a
    // cache-on server allocates a small constant above the same serve
    // on a cache-off server.
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 2000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.seed = 7;
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::CrsConfig cached_config;
    cached_config.cache.enabled = true;
    crs::ClauseRetrievalServer plain(sym, store);
    crs::ClauseRetrievalServer cached(sym, store, cached_config);

    term::TermReader reader(sym);
    term::ParsedTerm warm = reader.parseTerm("p0(a1, X)");
    term::ParsedTerm goal = reader.parseTerm("p0(a2, X)");
    auto allocations = [](crs::ClauseRetrievalServer &server,
                          const term::ParsedTerm &g) {
        crs::RetrievalRequest request;
        request.arena = &g.arena;
        request.goal = g.root;
        request.mode = crs::SearchMode::Fs1Only;
        const std::uint64_t before = support::allocationCount();
        crs::RetrievalResponse r = server.serve(request);
        return support::allocationCount() - before;
    };
    // A first miss registers each server's lazily created metrics.
    allocations(plain, warm);
    allocations(cached, warm);

    const std::uint64_t off = allocations(plain, goal);
    const std::uint64_t miss = allocations(cached, goal);
    ASSERT_EQ(cached.goalCacheSize(), 2u);
    EXPECT_LE(miss, off + 20)
        << "cache-on miss allocations: " << miss << ", cache-off: "
        << off;
}

TEST(ColdServeAllocationTest, FullScansAllocateTheSameAtAnyClauseCount)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";

    // The software scan and the FS2 stream examine every stored record
    // through one scratch decode, one set of binding cells and
    // non-owning op sinks, so a serve whose goal no clause matches
    // allocates the same at 200 clauses as at 2000.
    const crs::SearchMode modes[] = {crs::SearchMode::SoftwareOnly,
                                     crs::SearchMode::Fs2Only,
                                     crs::SearchMode::TwoStage};
    auto allocations = [&](int clauses) {
        term::SymbolTable sym;
        term::TermReader reader(sym);
        std::string text;
        for (int i = 0; i < clauses; ++i)
            text += "p(k" + std::to_string(i) + ", f(u" +
                std::to_string(i % 7) + ", [a, b])).\n";
        term::Program program;
        for (auto &c : reader.parseProgram(text))
            program.add(std::move(c));
        crs::PredicateStore store(sym, scw::CodewordGenerator{});
        store.addProgram(program);
        store.finalize();
        crs::ClauseRetrievalServer server(sym, store);
        term::ParsedTerm goal = reader.parseTerm("p(nowhere, f(X, Y))");

        std::vector<std::uint64_t> counts;
        for (crs::SearchMode mode : modes) {
            crs::RetrievalRequest request;
            request.arena = &goal.arena;
            request.goal = goal.root;
            request.mode = mode;
            // The first serve registers the mode's lazily created
            // metrics.
            server.serve(request);
            const std::uint64_t before = support::allocationCount();
            crs::RetrievalResponse r = server.serve(request);
            counts.push_back(support::allocationCount() - before);
            EXPECT_TRUE(r.candidates.empty())
                << crs::searchModeSlug(mode) << " at " << clauses;
            EXPECT_EQ(r.clausesExamined,
                      mode == crs::SearchMode::TwoStage
                          ? r.fs1Hits
                          : static_cast<std::uint64_t>(clauses))
                << crs::searchModeSlug(mode) << " at " << clauses;
        }
        return counts;
    };

    const std::vector<std::uint64_t> small = allocations(200);
    const std::vector<std::uint64_t> large = allocations(2000);
    for (std::size_t m = 0; m < small.size(); ++m)
        EXPECT_EQ(large[m], small[m])
            << crs::searchModeSlug(modes[m]) << ": " << small[m]
            << " allocations at 200 clauses, " << large[m]
            << " at 2000";
}

} // namespace
} // namespace clare
