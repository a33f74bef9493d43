/**
 * @file
 * The data-sharding layer (ctest labels: shard, net, faults).
 *
 * Catalog: the JSON document round-trips exactly (save -> load ->
 * operator==, identical replica lookups), and validate() rejects a
 * catalog that does not fit the backend list.  Slices: a store slice
 * persisted by saveStoreSlice is a complete self-contained store —
 * the full symbol table travels with every slice, so symbol ids in
 * queries and answers are identical across the full store and every
 * slice, and a slice-backed serve() is bit-identical to the
 * full-store serve() for the slice's predicates.
 *
 * Cluster: a 3-shard x 2-replica cluster (six backends, each loading
 * only its slice) behind a catalog-routed Router answers a
 * mixed-predicate wire batch bit-identically — answers AND modeled
 * StageBreakdown ticks — to a local serveBatch() of the same requests
 * on the unsharded store; a poisoned slice replica stays invisible
 * (the router holds the degraded reply and hunts its twin); and a
 * catalog reload rebalances a shard onto a new backend without
 * breaking the exactness contract.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/catalog.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/server.hh"
#include "net/wire.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

/** The predicate a generated query goal targets. */
term::PredicateId
goalPredicate(const workload::GeneratedQuery &q)
{
    if (q.arena.kind(q.goal) == term::TermKind::Atom)
        return {q.arena.atomSymbol(q.goal), 0};
    return {q.arena.functor(q.goal), q.arena.arity(q.goal)};
}

// ---------------------------------------------------------------------
// Shard catalog.
// ---------------------------------------------------------------------

net::ShardCatalog
makeCatalog()
{
    net::ShardCatalog catalog;
    catalog.assign({10, 2}, 0);
    catalog.assign({11, 3}, 1);
    catalog.assign({12, 0}, 2);
    catalog.assign({13, 2}, 0);
    catalog.setReplicas(0, {0, 1});
    catalog.setReplicas(1, {2, 3});
    catalog.setReplicas(2, {4, 5});
    return catalog;
}

TEST(ShardCatalogTest, JsonRoundTrip)
{
    net::ShardCatalog catalog = makeCatalog();
    std::string path =
        ::testing::TempDir() + "clare_catalog_roundtrip.json";
    catalog.save(path);
    net::ShardCatalog loaded = net::ShardCatalog::load(path);
    EXPECT_TRUE(catalog == loaded);
    EXPECT_EQ(loaded.shardCount(), 3u);
    EXPECT_EQ(loaded.predicateCount(), 4u);
    for (const auto &[pred, shard] : catalog.assignments()) {
        ASSERT_NE(loaded.replicasOf(pred), nullptr);
        EXPECT_EQ(*loaded.replicasOf(pred), *catalog.replicasOf(pred));
        EXPECT_EQ(loaded.shardOf(pred), shard);
    }
    EXPECT_EQ(loaded.replicasOf({99, 9}), nullptr);
    std::filesystem::remove(path);
}

TEST(ShardCatalogTest, ValidateRejectsMisfits)
{
    net::ShardCatalog catalog = makeCatalog();
    catalog.validate(6); // fits: backend indexes 0..5
    // Backend index 5 is out of range for a 5-backend cluster.
    EXPECT_THROW(catalog.validate(5), Error);
    // A shard with no replicas cannot serve its predicates.
    net::ShardCatalog empty;
    empty.assign({1, 1}, 0);
    empty.setReplicas(0, {});
    EXPECT_THROW(empty.validate(4), Error);
}

TEST(ShardCatalogTest, DamagedJsonIsTyped)
{
    EXPECT_THROW(net::ShardCatalog::fromJson(
                     *json::Value::parse("{\"clare-catalog\": 2}"),
                     "test"),
                 CorruptionError);
    // Duplicate predicate assignment: one owner per predicate.
    std::optional<json::Value> dup = json::Value::parse(
        "{\"clare-catalog\": 1, \"shards\": 1, \"replicas\": [[0]], "
        "\"predicates\": [{\"functor\": 1, \"arity\": 2, \"shard\": 0},"
        " {\"functor\": 1, \"arity\": 2, \"shard\": 0}]}");
    ASSERT_TRUE(dup.has_value());
    EXPECT_THROW(net::ShardCatalog::fromJson(*dup, "test"),
                 CorruptionError);
}

// ---------------------------------------------------------------------
// Store slices.
// ---------------------------------------------------------------------

class StoreSliceTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_slice_store";
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
        spec.predicates = 6;
        spec.clausesPerPredicate = 32;
        spec.arityMin = 2;
        spec.arityMax = 3;
        spec.atomVocabulary = 40;
        spec.seed = 23;
        program_ = kbgen.generate(spec);

        workload::QuerySpec qspec;
        qspec.seed = 31;
        qspec.boundArgProb = 0.7;
        workload::QueryGenerator qgen(sym_, qspec);
        for (std::size_t i = 0; i < 18; ++i)
            queries_.push_back(qgen.generate(
                program_,
                program_.predicates()[i % program_.predicates().size()]));

        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program_);
        store_->finalize();
        crs::saveStore(dir_ + "/full", *store_, sym_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }
};

TEST_F(StoreSliceTest, SliceIsSelfContainedAndSymbolFaithful)
{
    // Slice = first half of the predicates.
    const std::vector<term::PredicateId> &preds = program_.predicates();
    std::vector<term::PredicateId> half(preds.begin(),
                                        preds.begin() + 3);
    crs::saveStoreSlice(dir_ + "/slice", *store_, sym_, half);

    term::SymbolTable sliceSym;
    crs::PredicateStore slice = crs::loadStore(dir_ + "/slice", sliceSym);

    // The full symbol table travels with the slice: every id resolves
    // to the same text, so goal/answer symbol ids are portable across
    // the full store and every slice.
    ASSERT_EQ(sliceSym.atomCount(), sym_.atomCount());
    for (term::SymbolId id = 0;
         id < static_cast<term::SymbolId>(sym_.atomCount()); ++id)
        EXPECT_EQ(sliceSym.name(id), sym_.name(id));

    // Exactly the sliced predicates, nothing else.
    EXPECT_EQ(slice.predicates().size(), half.size());
    for (const term::PredicateId &pred : half)
        EXPECT_TRUE(slice.has(pred));
    for (std::size_t i = 3; i < preds.size(); ++i)
        EXPECT_FALSE(slice.has(preds[i]));
}

TEST_F(StoreSliceTest, SliceServeIsBitIdenticalToFullStore)
{
    const std::vector<term::PredicateId> &preds = program_.predicates();
    std::vector<term::PredicateId> half(preds.begin(),
                                        preds.begin() + 3);
    crs::saveStoreSlice(dir_ + "/slice", *store_, sym_, half);

    term::SymbolTable fullSym, sliceSym;
    crs::PredicateStore full = crs::loadStore(dir_ + "/full", fullSym);
    crs::PredicateStore slice = crs::loadStore(dir_ + "/slice", sliceSym);
    crs::ClauseRetrievalServer fullServer(fullSym, full);
    crs::ClauseRetrievalServer sliceServer(sliceSym, slice);

    for (const workload::GeneratedQuery &q : queries_) {
        if (!slice.has(goalPredicate(q)))
            continue;
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        crs::RetrievalResponse a = fullServer.serve(request);
        crs::RetrievalResponse b = sliceServer.serve(request);
        EXPECT_TRUE(net::responsesIdentical(a, b));
    }
}

TEST_F(StoreSliceTest, SliceOfAMissingPredicateIsTyped)
{
    EXPECT_THROW(crs::saveStoreSlice(dir_ + "/bad", *store_, sym_,
                                     {term::PredicateId{9999, 7}}),
                 Error);
}

// ---------------------------------------------------------------------
// Sharded cluster: slices + catalog + router scatter/gather.
// ---------------------------------------------------------------------

/** One slice-backed backend. */
struct SliceBackend
{
    term::SymbolTable symbols;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
    std::unique_ptr<net::NetServer> net;
};

class ShardClusterTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kShards = 3;
    static constexpr std::uint32_t kReplicas = 2;

    std::string dir_ = ::testing::TempDir() + "clare_shard_cluster";
    term::SymbolTable sym_;
    term::Program program_;
    std::vector<workload::GeneratedQuery> queries_;
    std::unique_ptr<crs::PredicateStore> store_;
    /** The unsharded reference: the same authoritative front door. */
    std::unique_ptr<crs::ClauseRetrievalServer> local_;
    net::ShardCatalog catalog_;
    std::vector<std::unique_ptr<SliceBackend>> backends_;

    void
    SetUp() override
    {
        std::filesystem::remove_all(dir_);
        workload::KbGenerator kbgen(sym_);
        workload::KbSpec spec;
        spec.predicates = 6;
        spec.clausesPerPredicate = 32;
        spec.arityMin = 2;
        spec.arityMax = 3;
        spec.atomVocabulary = 40;
        spec.seed = 41;
        program_ = kbgen.generate(spec);

        // Mixed-predicate query stream (queries BEFORE saveStore so
        // the persisted schema covers them).
        workload::QuerySpec qspec;
        qspec.seed = 43;
        qspec.boundArgProb = 0.7;
        workload::QueryGenerator qgen(sym_, qspec);
        Rng rng(47);
        for (int i = 0; i < 24; ++i)
            queries_.push_back(qgen.generate(
                program_, program_.predicates()[
                              rng.below(program_.predicates().size())]));

        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program_);
        store_->finalize();
        crs::saveStore(dir_ + "/full", *store_, sym_);
        local_ = std::make_unique<crs::ClauseRetrievalServer>(
            sym_, *store_);

        // Round-robin the predicates over kShards slices and persist
        // each slice; replicas for shard s are backends s*R .. s*R+R-1.
        const std::vector<term::PredicateId> &preds =
            program_.predicates();
        std::vector<std::vector<term::PredicateId>> slicePreds(kShards);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            std::uint32_t shard = static_cast<std::uint32_t>(i % kShards);
            catalog_.assign(preds[i], shard);
            slicePreds[shard].push_back(preds[i]);
        }
        for (std::uint32_t s = 0; s < kShards; ++s) {
            std::vector<std::uint32_t> replicas;
            for (std::uint32_t r = 0; r < kReplicas; ++r)
                replicas.push_back(s * kReplicas + r);
            catalog_.setReplicas(s, replicas);
            crs::saveStoreSlice(sliceDir(s), *store_, sym_,
                                slicePreds[s]);
        }
    }

    void
    TearDown() override
    {
        for (auto &b : backends_)
            if (b->net)
                b->net->stop();
        backends_.clear();
        std::filesystem::remove_all(dir_);
    }

    std::string
    sliceDir(std::uint32_t shard) const
    {
        return dir_ + "/slice-" + std::to_string(shard);
    }

    /** Spawn a backend serving @p storeDir (a slice or the full store). */
    SliceBackend &
    spawnBackend(const std::string &storeDir,
                 crs::CrsConfig crs_config = {})
    {
        auto b = std::make_unique<SliceBackend>();
        b->store = std::make_unique<crs::PredicateStore>(
            crs::loadStore(storeDir, b->symbols));
        b->server = std::make_unique<crs::ClauseRetrievalServer>(
            b->symbols, *b->store, crs_config);
        b->net = std::make_unique<net::NetServer>(
            b->symbols, *b->store, *b->server, net::NetServerConfig{});
        b->net->start();
        backends_.push_back(std::move(b));
        return *backends_.back();
    }

    /** Spawn the full kShards x kReplicas slice cluster in catalog
     *  backend-index order; @p poisonedBackend (if set) gets the
     *  seeded disk fault injector. */
    void
    spawnCluster(const support::FaultInjector *faults = nullptr,
                 std::uint32_t poisonedBackend = 0)
    {
        for (std::uint32_t s = 0; s < kShards; ++s) {
            for (std::uint32_t r = 0; r < kReplicas; ++r) {
                crs::CrsConfig config;
                if (faults &&
                    s * kReplicas + r == poisonedBackend)
                    config.faults = faults;
                spawnBackend(sliceDir(s), config);
            }
        }
    }

    net::RouterConfig
    routerConfig() const
    {
        net::RouterConfig config;
        for (const auto &b : backends_)
            config.backendPorts.push_back(b->net->port());
        config.backendTimeoutMillis = 1000;
        return config;
    }

    std::vector<crs::RetrievalRequest>
    batchRequests(std::optional<crs::SearchMode> mode = {}) const
    {
        std::vector<crs::RetrievalRequest> batch;
        for (const workload::GeneratedQuery &q : queries_) {
            crs::RetrievalRequest request;
            request.arena = &q.arena;
            request.goal = q.goal;
            request.mode = mode;
            batch.push_back(request);
        }
        return batch;
    }
};

TEST_F(ShardClusterTest, MixedBatchScatterGatherIsBitIdentical)
{
    spawnCluster();
    net::Router router(routerConfig());
    router.setCatalog(catalog_);
    router.start();

    net::NetClient client(router.port(), "test-client");
    std::vector<crs::RetrievalRequest> batch = batchRequests();
    std::vector<crs::RetrievalResponse> wire = client.serveBatch(batch);
    std::vector<crs::RetrievalResponse> ref = local_->serveBatch(batch);
    ASSERT_EQ(wire.size(), ref.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        EXPECT_TRUE(net::responsesIdentical(wire[i], ref[i]))
            << "batch item " << i;
        EXPECT_EQ(wire[i].elapsed, ref[i].elapsed);
    }

    // The batch really scattered: one sub-batch per shard touched.
    EXPECT_EQ(router.metrics().counter("router.batches").value(), 1u);
    EXPECT_EQ(router.metrics().counter("router.batch_items").value(),
              batch.size());
    EXPECT_EQ(router.metrics().counter("router.subbatches").value(),
              static_cast<std::uint64_t>(kShards));
    router.stop();
}

TEST_F(ShardClusterTest, SingleRequestsRouteByCatalog)
{
    spawnCluster();
    net::Router router(routerConfig());
    router.setCatalog(catalog_);
    router.start();

    // replicasOf is exactly the catalog's list, not the hash policy.
    for (const term::PredicateId &pred : store_->predicates()) {
        ASSERT_TRUE(catalog_.shardOf(pred).has_value());
        EXPECT_EQ(router.replicasOf(pred),
                  *catalog_.replicasOf(pred));
    }

    net::NetClient client(router.port(), "test-client");
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        crs::RetrievalResponse wire = client.serve(request);
        crs::RetrievalResponse ref = local_->serve(request);
        EXPECT_TRUE(net::responsesIdentical(wire, ref));
    }
    router.stop();
}

TEST_F(ShardClusterTest, PoisonedSliceReplicaIsInvisible)
{
    // Backend 0 (shard 0's first replica) reads flip bits on half its
    // index pages; its twin replica is clean.  The router must hold
    // the degraded reply, hunt the twin, and answer bit-identically
    // to the unsharded reference — with the counter split intact:
    // degraded hunts are not failovers.
    support::FaultConfig fault_config;
    fault_config.seed = 42;
    fault_config.bitFlipRate = 0.5;
    support::FaultInjector injector(fault_config);
    spawnCluster(&injector, 0);

    net::Router router(routerConfig());
    router.setCatalog(catalog_);
    router.start();

    net::NetClient client(router.port(), "test-client");
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        request.mode = crs::SearchMode::Fs1Only;
        crs::RetrievalResponse wire = client.serve(request);
        crs::RetrievalResponse ref = local_->serve(request);
        EXPECT_TRUE(net::responsesIdentical(wire, ref));
        EXPECT_FALSE(wire.degraded);
    }
    EXPECT_GT(router.metrics().counter("router.degraded_retries").value(),
              0u);
    EXPECT_EQ(router.metrics().counter("router.failovers").value(), 0u);
    router.stop();
}

TEST_F(ShardClusterTest, CatalogReloadRebalancesAShard)
{
    spawnCluster();
    // A seventh backend holding a copy of shard 0's slice — the
    // rebalance target.
    std::filesystem::copy(sliceDir(0), dir_ + "/slice-0-copy",
                          std::filesystem::copy_options::recursive);
    spawnBackend(dir_ + "/slice-0-copy");

    net::RouterConfig config = routerConfig();
    std::string catalogPath = dir_ + "/catalog.json";
    catalog_.save(catalogPath);
    config.catalogPath = catalogPath;
    net::Router router(config);
    router.start();

    term::PredicateId shard0Pred = program_.predicates()[0];
    ASSERT_EQ(catalog_.shardOf(shard0Pred), 0u);
    EXPECT_EQ(router.replicasOf(shard0Pred),
              (std::vector<std::uint32_t>{0, 1}));

    // Rebalance: shard 0 moves to the new backend (index 6), catalog
    // is rewritten on disk and reloaded through the admin surface.
    catalog_.setReplicas(0, {6});
    catalog_.save(catalogPath);
    router.reloadCatalog();
    EXPECT_EQ(router.replicasOf(shard0Pred),
              (std::vector<std::uint32_t>{6}));
    EXPECT_EQ(router.metrics().counter("router.catalog_reloads").value(),
              1u);

    // Traffic still answers bit-identically after the move.
    net::NetClient client(router.port(), "test-client");
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        crs::RetrievalResponse wire = client.serve(request);
        crs::RetrievalResponse ref = local_->serve(request);
        EXPECT_TRUE(net::responsesIdentical(wire, ref));
    }
    router.stop();
}

TEST_F(ShardClusterTest, UncataloguedPredicateAnswersUnavailable)
{
    spawnCluster();
    net::ShardCatalog partial;
    // Only shard 0's predicates are routable.
    for (const auto &[pred, shard] : catalog_.assignments())
        if (shard == 0)
            partial.assign(pred, 0);
    partial.setReplicas(0, {0, 1});
    net::Router router(routerConfig());
    router.setCatalog(partial);
    router.start();

    net::NetClient client(router.port(), "test-client");
    bool sawUnavailable = false;
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        if (partial.shardOf(goalPredicate(q)).has_value()) {
            crs::RetrievalResponse wire = client.serve(request);
            crs::RetrievalResponse ref = local_->serve(request);
            EXPECT_TRUE(net::responsesIdentical(wire, ref));
        } else {
            try {
                client.serve(request);
                FAIL() << "expected Unavailable";
            } catch (const net::RemoteError &e) {
                EXPECT_EQ(e.code(), net::ErrorCode::Unavailable);
                sawUnavailable = true;
            }
        }
    }
    EXPECT_TRUE(sawUnavailable);
    router.stop();
}

} // namespace
} // namespace clare
