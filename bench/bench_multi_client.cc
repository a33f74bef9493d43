/**
 * @file
 * Experiment C2 — multi-client access through the CRS ("simultaneous
 * access by multiple clients which involves procedures for concurrency
 * control and transaction handling", section 2.2).
 *
 * The concurrency-control answer is the write-mix section
 * (liveWriteMixSweep, below): one WAL-backed LiveStore writer beside
 * concurrent readers, each read pinned to an MVCC version.  The cache
 * section first shows what the goal cache pays on repeated goals.
 *
 * The load-generator section takes the same question to the networked
 * tier: it boots a live loopback cluster (backend NetServers behind
 * the predicate-sharded Router) and drives it with concurrent wire
 * clients in closed loop (each client fires its next request when the
 * previous answer lands) and open loop (requests arrive on a fixed
 * schedule at --lg-qps regardless of completion, so queueing delay
 * shows up in the tail).  Latencies land in an obs histogram and are
 * reported as p50/p99/p999; a sample of the wire answers is checked
 * bit-identical to a single-process serve() of the same goals.
 *
 * The minor-compaction section times single asserta, retract and
 * assertz commits on a 5000-clause predicate: the first two rebuild
 * the predicate, the last appends.
 *
 * The write-mix section (--write-mix=P, default 0.10) adds a live
 * writer: an in-process thread streams WAL-backed assertz commits
 * through a LiveStore while reader threads run a closed loop against
 * the same server, sweeping the reader count.  Snapshot-pinned probes
 * must stay bit-identical to the pre-write reference throughout — the
 * MVCC claim under real contention, with read latency percentiles to
 * show readers never stall on the writer.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench_util.hh"
#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/catalog.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/server.hh"
#include "support/alloc_counter.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/table.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

using namespace clare;

namespace {

/**
 * The goal-cache payoff on a multi-client workload: clients keep
 * re-asking a small set of hot goals (8 distinct goals, 8 times each).
 * A cold / cache-disabled server pays the full index scan every time;
 * a warm server serves the repeats from the L3 goal cache at the
 * modeled lookup cost.  The sweep reports total simulated service time
 * cold vs warm, and re-runs the warm server with --cache-bypass
 * semantics to show a bypassed request reproduces the cold numbers
 * bit-for-bit.
 */
void
repeatedGoalCacheSweep(json::Value &json_rows,
                       const bench::CacheKnobs &knobs)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 4;
    spec.clausesPerPredicate = 2000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 800;
    spec.seed = 23;
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    // 8 hot goals, 8 repeats each, round-robin (so repeats are spread
    // across the run, not back-to-back).
    term::TermReader reader(sym);
    std::vector<term::ParsedTerm> goals;
    Rng rng(59);
    for (int g = 0; g < 8; ++g) {
        std::string pred = "p" + std::to_string(g % spec.predicates);
        std::string key =
            "a" + std::to_string(rng.below(spec.atomVocabulary));
        goals.push_back(reader.parseTerm(pred + "(" + key + ", B)"));
    }

    auto run = [&](crs::ClauseRetrievalServer &server, bool bypass) {
        struct Totals
        {
            Tick service = 0;
            std::uint64_t answers = 0;
            double wallP50Ns = 0.0;
            double allocsPerReq = 0.0;
        } totals;
        std::vector<double> wall_ns;
        wall_ns.reserve(64);
        const std::uint64_t allocs_before = support::allocationCount();
        for (int repeat = 0; repeat < 8; ++repeat) {
            for (const term::ParsedTerm &goal : goals) {
                crs::RetrievalRequest req;
                req.arena = &goal.arena;
                req.goal = goal.root;
                req.bypassCache = bypass;
                auto t0 = std::chrono::steady_clock::now();
                crs::RetrievalResponse r = server.serve(req);
                auto t1 = std::chrono::steady_clock::now();
                wall_ns.push_back(
                    std::chrono::duration<double, std::nano>(t1 - t0)
                        .count());
                totals.service += r.breakdown.serviceTime();
                totals.answers += r.answers.size();
            }
        }
        const std::uint64_t allocs_after = support::allocationCount();
        std::sort(wall_ns.begin(), wall_ns.end());
        totals.wallP50Ns = wall_ns[wall_ns.size() / 2];
        totals.allocsPerReq =
            static_cast<double>(allocs_after - allocs_before) /
            static_cast<double>(wall_ns.size());
        return totals;
    };

    crs::ClauseRetrievalServer cold(sym, store);
    auto cold_totals = run(cold, false);

    crs::CrsConfig warm_config;
    warm_config.cache.enabled = true;
    bench::CacheKnobs sized = knobs;
    sized.enabled = true;
    sized.apply(warm_config);
    crs::ClauseRetrievalServer warm(sym, store, warm_config);
    auto warm_totals = run(warm, false);
    // The server is warm now: every bypassed request must still run
    // the full pipeline and reproduce the cache-disabled numbers.
    auto bypass_totals = run(warm, true);

    double speedup = static_cast<double>(cold_totals.service) /
        static_cast<double>(warm_totals.service);
    bool bypass_identical =
        bypass_totals.service == cold_totals.service &&
        bypass_totals.answers == cold_totals.answers;

    Table t("Repeated-goal workload (64 jobs, 8 hot goals): goal "
            "cache payoff");
    t.header({"Run", "Total service time", "Answers", "Wall p50",
              "Allocs/req", "Speedup"});
    char w[32];
    auto wall = [&](double ns) {
        std::snprintf(w, sizeof(w), "%.1f us", ns / 1e3);
        return std::string(w);
    };
    auto allocs = [](double a) {
        if (!support::allocCountingEnabled())
            return std::string("n/a");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", a);
        return std::string(buf);
    };
    t.row({"cache disabled", bench::formatTime(cold_totals.service),
           std::to_string(cold_totals.answers),
           wall(cold_totals.wallP50Ns), allocs(cold_totals.allocsPerReq),
           "1.00x"});
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    t.row({"cache enabled", bench::formatTime(warm_totals.service),
           std::to_string(warm_totals.answers),
           wall(warm_totals.wallP50Ns), allocs(warm_totals.allocsPerReq),
           sp});
    t.row({"warm + bypass", bench::formatTime(bypass_totals.service),
           std::to_string(bypass_totals.answers),
           wall(bypass_totals.wallP50Ns),
           allocs(bypass_totals.allocsPerReq),
           bypass_identical ? "= cold (exact)" : "MISMATCH"});
    t.print(std::cout);
    std::printf("shape: repeats hit the L3 goal cache at the modeled "
                "lookup cost instead of\nre-scanning the index "
                "(expect >= 2x at the default sizes); bypassed "
                "requests on\nthe warm server reproduce the cold "
                "numbers exactly.\n\n");

    json::Value row = json::Value::object();
    row.set("sweep", "repeated_goal_cache");
    row.set("cold_service_ticks", cold_totals.service);
    row.set("warm_service_ticks", warm_totals.service);
    row.set("bypass_service_ticks", bypass_totals.service);
    row.set("speedup", speedup);
    row.set("bypass_identical", bypass_identical);
    row.set("goal_cache_entries",
            static_cast<std::uint64_t>(warm.goalCacheSize()));
    row.set("cold_wall_p50_ns", cold_totals.wallP50Ns);
    row.set("warm_wall_p50_ns", warm_totals.wallP50Ns);
    // Allocation columns are meaningful only when the build compiled
    // in the counting operator new (-DCLARE_COUNT_ALLOCS=ON); other
    // builds export -1 so downstream tooling can tell "zero" from
    // "not measured".
    row.set("alloc_counting",
            support::allocCountingEnabled());
    row.set("allocs_per_req_cold",
            support::allocCountingEnabled() ? cold_totals.allocsPerReq
                                            : -1.0);
    row.set("allocs_per_req_warm",
            support::allocCountingEnabled() ? warm_totals.allocsPerReq
                                            : -1.0);
    json_rows.push(std::move(row));
}

/**
 * Live read/write mix (Experiment C2): one writer thread streams
 * single-clause assertz commits (WAL sync + MVCC publish each) into
 * the hot predicate while N reader threads run keyed lookups in closed
 * loop against the same server.  The op budget is split by
 * @p write_mix.  Throughout the run a snapshot-0 probe goal is served
 * alongside the load and checked bit-identical (answers AND modeled
 * ticks) to the reference captured before the writer started.
 */
void
liveWriteMixSweep(double write_mix, json::Value &json_rows)
{
    constexpr std::uint32_t kOps = 512;
    const auto writes = static_cast<std::uint32_t>(
        write_mix * kOps + 0.5);
    const std::uint32_t reads = kOps - writes;

    Table t("Live write mix (" + std::to_string(writes) + " assertz "
            "commits + " + std::to_string(reads) + " reads, hot "
            "predicate p0)");
    t.header({"Readers", "Wall time", "Reads/s", "Commits/s",
              "Read p50", "Read p99", "Snapshot reads"});

    for (std::uint32_t readers : {1u, 2u, 4u}) {
        // Fresh state per row so every reader count starts from the
        // same store generation.
        term::SymbolTable sym;
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 4;
        spec.clausesPerPredicate = 2000;
        spec.arityMin = 2;
        spec.arityMax = 2;
        spec.atomVocabulary = 800;
        spec.seed = 83;
        term::Program program = kbgen.generate(spec);
        crs::PredicateStore store(sym, scw::CodewordGenerator{});
        store.addProgram(program);
        store.finalize();

        std::string wal_path =
            (std::filesystem::temp_directory_path() /
             ("clare_bench_write_mix_" + std::to_string(readers) +
              ".wal")).string();
        std::filesystem::remove(wal_path);
        crs::LiveStore live(store, sym, wal_path);
        crs::ClauseRetrievalServer server(sym, store);
        live.attachSink(&server);

        // Pre-parse everything so all symbol interning happens before
        // a second thread exists (the SymbolTable is unsynchronized;
        // afterwards the commit path only performs lookups).
        term::TermReader reader(sym);
        std::vector<term::Clause> stream;
        for (std::uint32_t i = 0; i < writes; ++i)
            stream.push_back(reader.parseClause(
                "p0(live" + std::to_string(i) + ", live" +
                std::to_string(i + 1) + ")."));
        std::vector<term::ParsedTerm> goals;
        Rng rng(97);
        for (int g = 0; g < 32; ++g) {
            std::string pred = "p" + std::to_string(g % spec.predicates);
            std::string key =
                "a" + std::to_string(rng.below(spec.atomVocabulary));
            goals.push_back(reader.parseTerm(pred + "(" + key + ", B)"));
        }
        term::ParsedTerm probe = reader.parseTerm("p0(A, B)");
        crs::RetrievalRequest probe_req;
        probe_req.arena = &probe.arena;
        probe_req.goal = probe.root;
        probe_req.snapshot = 0;
        const crs::RetrievalResponse probe_ref =
            server.serve(probe_req);

        using Clock = std::chrono::steady_clock;
        obs::Histogram latency(
            obs::Histogram::exponential(1.0, 1.5, 40));
        std::atomic<std::uint32_t> next{0};
        std::atomic<bool> snapshot_identical{true};

        auto start = Clock::now();
        std::thread writer([&] {
            for (const term::Clause &clause : stream)
                live.assertz(clause);
        });
        std::vector<std::thread> threads;
        for (std::uint32_t c = 0; c < readers; ++c) {
            threads.emplace_back([&] {
                while (true) {
                    std::uint32_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= reads)
                        break;
                    const term::ParsedTerm &g = goals[i % goals.size()];
                    crs::RetrievalRequest request;
                    request.arena = &g.arena;
                    request.goal = g.root;
                    Clock::time_point begin = Clock::now();
                    server.serve(request);
                    latency.record(
                        std::chrono::duration<double, std::micro>(
                            Clock::now() - begin).count());
                    // Every 16th read re-probes the pinned snapshot:
                    // the pre-write view must survive the writer.
                    if (i % 16 == 0) {
                        crs::RetrievalResponse snap =
                            server.serve(probe_req);
                        if (snap.answers != probe_ref.answers ||
                            snap.elapsed != probe_ref.elapsed) {
                            snapshot_identical.store(
                                false, std::memory_order_relaxed);
                        }
                    }
                }
            });
        }
        writer.join();
        for (std::thread &th : threads)
            th.join();
        double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();

        double p50 = obs::histogramPercentile(latency, 0.50);
        double p99 = obs::histogramPercentile(latency, 0.99);
        bool identical =
            snapshot_identical.load(std::memory_order_relaxed) &&
            store.headGeneration() == writes;
        char wall[32], rps[32], cps[32], p50s[32], p99s[32];
        std::snprintf(wall, sizeof(wall), "%.1f ms", seconds * 1e3);
        std::snprintf(rps, sizeof(rps), "%.0f", reads / seconds);
        std::snprintf(cps, sizeof(cps), "%.0f", writes / seconds);
        std::snprintf(p50s, sizeof(p50s), "%.0f us", p50);
        std::snprintf(p99s, sizeof(p99s), "%.0f us", p99);
        t.row({std::to_string(readers), wall, rps, cps, p50s, p99s,
               identical ? "identical" : "MISMATCH"});

        json::Value row = json::Value::object();
        row.set("sweep", "live_write_mix");
        row.set("write_mix", write_mix);
        row.set("readers", readers);
        row.set("writes", writes);
        row.set("reads", reads);
        row.set("wall_seconds", seconds);
        row.set("reads_per_second", reads / seconds);
        row.set("commits_per_second", writes / seconds);
        row.set("read_p50_us", p50);
        row.set("read_p99_us", p99);
        row.set("snapshot_identical", identical);
        row.set("head_generation", store.headGeneration());
        json_rows.push(std::move(row));

        std::filesystem::remove(wal_path);
        if (!identical) {
            t.print(std::cout);
            std::exit(1);
        }
    }
    t.print(std::cout);
    std::printf("shape: readers never block on the writer (MVCC "
                "publish swaps a version pointer);\nsnapshot-pinned "
                "probes reproduce the pre-write answers and modeled "
                "ticks exactly\nwhile commits land, at every reader "
                "count.\n\n");
}

/**
 * What an order-changing commit costs.  An asserta or a retract
 * rebuilds its predicate (a minor compaction, one pass per clause
 * through crs::PredicateBuilder), while an assertz appends in
 * O(delta).  Each commit is timed alone, WAL append and sync
 * included, on one 5000-clause predicate.
 */
void
minorCompactionSweep(json::Value &json_rows)
{
    constexpr int kReps = 21;
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 5000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 2000;
    term::Program program = kbgen.generate(spec);
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const std::string wal_path =
        (std::filesystem::temp_directory_path() /
         "clare_bench_minor_compaction.wal").string();
    std::filesystem::remove(wal_path);
    crs::LiveStore live(store, sym, wal_path);

    using Clock = std::chrono::steady_clock;
    auto ms_since = [](Clock::time_point begin) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         begin).count();
    };
    term::TermReader reader(sym);
    std::vector<double> asserta_ms, retract_ms, assertz_ms;
    bool retracted = true;
    for (int r = 0; r < kReps; ++r) {
        // Prepend a clause, retract it again (it is the first clause,
        // so matching it is cheap and the commit dominates), then
        // append one.
        const std::string text = "p0(hot" + std::to_string(r) + ", x)";
        const term::Clause clause = reader.parseClause(text + ".");
        const term::ParsedTerm pattern = reader.parseTerm(text);
        Clock::time_point begin = Clock::now();
        live.asserta(clause);
        asserta_ms.push_back(ms_since(begin));
        begin = Clock::now();
        retracted &= live.retract(pattern.arena, pattern.root).has_value();
        retract_ms.push_back(ms_since(begin));
        const term::Clause tail = reader.parseClause(
            "p0(tail" + std::to_string(r) + ", x).");
        begin = Clock::now();
        live.assertz(tail);
        assertz_ms.push_back(ms_since(begin));
    }
    std::filesystem::remove(wal_path);

    Table t("Minor compaction (one commit on a 5000-clause predicate, " +
            std::to_string(kReps) + " each)");
    t.header({"Commit", "Median", "Min", "Max"});
    auto report = [&](const char *name, std::vector<double> ms) {
        std::sort(ms.begin(), ms.end());
        char med[32], lo[32], hi[32];
        std::snprintf(med, sizeof(med), "%.2f ms", ms[ms.size() / 2]);
        std::snprintf(lo, sizeof(lo), "%.2f ms", ms.front());
        std::snprintf(hi, sizeof(hi), "%.2f ms", ms.back());
        t.row({name, med, lo, hi});
        json::Value row = json::Value::object();
        row.set("sweep", "minor_compaction");
        row.set("commit", name);
        row.set("clauses", spec.clausesPerPredicate);
        row.set("median_ms", ms[ms.size() / 2]);
        row.set("min_ms", ms.front());
        row.set("max_ms", ms.back());
        json_rows.push(std::move(row));
    };
    report("asserta", asserta_ms);
    report("retract", retract_ms);
    report("assertz", assertz_ms);
    t.print(std::cout);
    std::printf("shape: asserta and retract rebuild the predicate, so "
                "they cost O(predicate);\nassertz appends in O(delta).\n\n");
    if (!retracted)
        std::exit(1);
}

/** Load-generator knobs (`--lg-*`; `--no-router` skips the section). */
struct LoadGenKnobs
{
    bool enabled = true;
    std::uint32_t clients = 4;    ///< concurrent wire clients
    std::uint32_t requests = 256; ///< per sweep (closed and open)
    double qps = 2000.0;          ///< open-loop arrival rate
};

/** `--write-mix=P`: fraction of the op budget spent as live commits. */
double
writeMixArg(int argc, char **argv)
{
    double mix = 0.1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--write-mix=", 12) == 0)
            mix = std::strtod(argv[i] + 12, nullptr);
    }
    if (mix < 0.0)
        mix = 0.0;
    if (mix > 0.9)
        mix = 0.9;
    return mix;
}

LoadGenKnobs
loadGenConfigArg(int argc, char **argv)
{
    LoadGenKnobs knobs;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-router") == 0)
            knobs.enabled = false;
        else if (std::strncmp(argv[i], "--lg-clients=", 13) == 0)
            knobs.clients = static_cast<std::uint32_t>(
                std::strtoul(argv[i] + 13, nullptr, 10));
        else if (std::strncmp(argv[i], "--lg-requests=", 14) == 0)
            knobs.requests = static_cast<std::uint32_t>(
                std::strtoul(argv[i] + 14, nullptr, 10));
        else if (std::strncmp(argv[i], "--lg-qps=", 9) == 0)
            knobs.qps = std::strtod(argv[i] + 9, nullptr);
    }
    if (knobs.clients == 0)
        knobs.clients = 1;
    return knobs;
}

/** One backend of the in-process cluster: its own schema copy. */
struct InProcessBackend
{
    term::SymbolTable symbols;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
    std::unique_ptr<net::NetServer> net;
};

/** Results of one load run against the router. */
struct LoadRunResult
{
    double wallSeconds = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t failures = 0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
};

/**
 * Drive @p total requests through @p port with @p clients threads.
 * Closed loop when @p qps <= 0; otherwise open loop with request i
 * scheduled at i/qps and latency measured from the *scheduled* start
 * (queueing delay is part of the answer, as in any open-loop bench).
 */
LoadRunResult
runLoad(std::uint16_t port, const std::vector<term::ParsedTerm> &goals,
        std::uint32_t clients, std::uint32_t total, double qps)
{
    using Clock = std::chrono::steady_clock;
    obs::Histogram latency(obs::Histogram::exponential(10.0, 1.5, 40));
    std::atomic<std::uint32_t> next{0};
    std::atomic<std::uint64_t> failures{0};

    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            net::NetClient client(port, "lg-client-" +
                                            std::to_string(c));
            while (true) {
                std::uint32_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= total)
                    break;
                Clock::time_point begin = Clock::now();
                if (qps > 0.0) {
                    // Open loop: arrivals on the fixed schedule.
                    begin = start + std::chrono::microseconds(
                        static_cast<std::uint64_t>(i * 1e6 / qps));
                    std::this_thread::sleep_until(begin);
                }
                const term::ParsedTerm &g = goals[i % goals.size()];
                crs::RetrievalRequest request;
                request.arena = &g.arena;
                request.goal = g.root;
                try {
                    client.serve(request);
                    latency.record(
                        std::chrono::duration<double, std::micro>(
                            Clock::now() - begin).count());
                } catch (const Error &) {
                    failures.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    LoadRunResult r;
    r.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    r.completed = latency.count();
    r.failures = failures.load();
    r.p50 = obs::histogramPercentile(latency, 0.50);
    r.p99 = obs::histogramPercentile(latency, 0.99);
    r.p999 = obs::histogramPercentile(latency, 0.999);
    return r;
}

/**
 * Boot 2 backends + router on loopback, drive them closed- and
 * open-loop, and verify a sample of wire answers against the local
 * front door.
 */
void
routerLoadSweep(const LoadGenKnobs &knobs, json::Value &json_rows)
{
    // Build and persist a store so every backend (and the verifying
    // local server) opens the identical schema, as real processes do.
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 4;
    spec.clausesPerPredicate = 1000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 500;
    spec.seed = 67;
    term::Program program = kbgen.generate(spec);

    // Goals before saveStore so their symbols persist in the schema.
    term::TermReader reader(sym);
    std::vector<term::ParsedTerm> goals;
    Rng rng(71);
    for (int g = 0; g < 32; ++g) {
        std::string pred = "p" + std::to_string(g % spec.predicates);
        std::string key =
            "a" + std::to_string(rng.below(spec.atomVocabulary));
        goals.push_back(reader.parseTerm(pred + "(" + key + ", B)"));
    }

    crs::PredicateStore built(sym, scw::CodewordGenerator{});
    built.addProgram(program);
    built.finalize();
    std::string dir = (std::filesystem::temp_directory_path() /
                       "clare_bench_lg_store").string();
    std::filesystem::remove_all(dir);
    crs::saveStore(dir, built, sym);

    // 2 backends + router, replication 2: every request has a
    // failover target, and both backends see load.
    std::vector<InProcessBackend> backends(2);
    net::RouterConfig router_config;
    for (InProcessBackend &b : backends) {
        b.store = std::make_unique<crs::PredicateStore>(
            crs::loadStore(dir, b.symbols));
        b.server = std::make_unique<crs::ClauseRetrievalServer>(
            b.symbols, *b.store);
        b.net = std::make_unique<net::NetServer>(b.symbols, *b.store,
                                                 *b.server);
        b.net->start();
        router_config.backendPorts.push_back(b.net->port());
    }
    router_config.replication = 2;
    net::Router router(router_config);
    router.start();

    Table t("Router load generator (2 backends, replication 2, " +
            std::to_string(knobs.clients) + " wire clients, " +
            std::to_string(knobs.requests) + " requests)");
    t.header({"Loop", "Wall time", "QPS", "p50", "p99", "p999",
              "Failures"});
    auto report = [&](const char *loop, double target_qps,
                      const LoadRunResult &r) {
        char wall[32], qv[32], p50[32], p99[32], p999[32];
        std::snprintf(wall, sizeof(wall), "%.1f ms",
                      r.wallSeconds * 1e3);
        std::snprintf(qv, sizeof(qv), "%.0f",
                      static_cast<double>(r.completed) / r.wallSeconds);
        std::snprintf(p50, sizeof(p50), "%.0f us", r.p50);
        std::snprintf(p99, sizeof(p99), "%.0f us", r.p99);
        std::snprintf(p999, sizeof(p999), "%.0f us", r.p999);
        t.row({loop, wall, qv, p50, p99, p999,
               std::to_string(r.failures)});

        json::Value row = json::Value::object();
        row.set("sweep", "router_load");
        row.set("loop", loop);
        row.set("clients", knobs.clients);
        row.set("requests", knobs.requests);
        if (target_qps > 0.0)
            row.set("target_qps", target_qps);
        row.set("wall_seconds", r.wallSeconds);
        row.set("achieved_qps",
                static_cast<double>(r.completed) / r.wallSeconds);
        row.set("completed", r.completed);
        row.set("failures", r.failures);
        row.set("p50_us", r.p50);
        row.set("p99_us", r.p99);
        row.set("p999_us", r.p999);
        json_rows.push(std::move(row));
    };

    report("closed", 0.0,
           runLoad(router.port(), goals, knobs.clients, knobs.requests,
                   0.0));
    report("open", knobs.qps,
           runLoad(router.port(), goals, knobs.clients, knobs.requests,
                   knobs.qps));

    // Exactness spot check: every distinct goal once through the wire
    // vs the local front door, bit-identical field for field.
    crs::ClauseRetrievalServer local(sym, built);
    net::NetClient probe(router.port(), "lg-verify");
    bool identical = true;
    for (const term::ParsedTerm &g : goals) {
        crs::RetrievalRequest request;
        request.arena = &g.arena;
        request.goal = g.root;
        identical = identical &&
            net::responsesIdentical(probe.serve(request),
                                    local.serve(request));
    }
    t.row({"verify", "-", "-", "-", "-", "-",
           identical ? "identical" : "MISMATCH"});
    t.print(std::cout);
    std::printf("shape: closed loop measures service capacity (each "
                "client waits for its answer);\nopen loop at a fixed "
                "arrival rate exposes queueing in p99/p999.  Wire "
                "answers\nmatch the local front door exactly.\n\n");

    json::Value vrow = json::Value::object();
    vrow.set("sweep", "router_load_verify");
    vrow.set("identical", identical);
    vrow.set("relayed", static_cast<std::uint64_t>(
        router.metrics().counter("router.relayed").value()));
    vrow.set("failovers", static_cast<std::uint64_t>(
        router.metrics().counter("router.failovers").value()));
    json_rows.push(std::move(vrow));

    router.stop();
    for (InProcessBackend &b : backends)
        b.net->stop();
    std::filesystem::remove_all(dir);

    if (!identical)
        std::exit(1);
}

/**
 * Data sharding: split the store itself into per-predicate slices
 * (crs::saveStoreSlice + net::ShardCatalog), boot a slice-backed
 * 3-shard x 2-replica cluster behind a catalog-routed Router, and
 * drive a mixed-predicate batch through the scatter/gather path.
 * Reports the per-backend store footprint (dataBytes + indexBytes of
 * the loaded slice vs the full store — the memory claim of ROADMAP
 * item 1) and checks the merged batch bit-identical to a local
 * serveBatch() on the unsharded store.
 */
void
shardedClusterSweep(json::Value &json_rows)
{
    constexpr std::uint32_t kShards = 3;
    constexpr std::uint32_t kReplicas = 2;

    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 12;
    spec.clausesPerPredicate = 1000;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 500;
    spec.seed = 73;
    term::Program program = kbgen.generate(spec);

    // Goals before saveStore so their symbols persist in the schema.
    term::TermReader reader(sym);
    std::vector<term::ParsedTerm> goals;
    Rng rng(79);
    for (int g = 0; g < 96; ++g) {
        std::string pred =
            "p" + std::to_string(rng.below(spec.predicates));
        std::string key =
            "a" + std::to_string(rng.below(spec.atomVocabulary));
        goals.push_back(reader.parseTerm(pred + "(" + key + ", B)"));
    }

    crs::PredicateStore built(sym, scw::CodewordGenerator{});
    built.addProgram(program);
    built.finalize();
    std::string dir = (std::filesystem::temp_directory_path() /
                       "clare_bench_shard_store").string();
    std::filesystem::remove_all(dir);
    crs::saveStore(dir + "/full", built, sym);

    // Round-robin the predicates into kShards slices + the catalog.
    net::ShardCatalog catalog;
    {
        const std::vector<term::PredicateId> &preds =
            program.predicates();
        std::vector<std::vector<term::PredicateId>> slices(kShards);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            std::uint32_t shard = static_cast<std::uint32_t>(i % kShards);
            catalog.assign(preds[i], shard);
            slices[shard].push_back(preds[i]);
        }
        for (std::uint32_t s = 0; s < kShards; ++s) {
            std::vector<std::uint32_t> replicas;
            for (std::uint32_t r = 0; r < kReplicas; ++r)
                replicas.push_back(s * kReplicas + r);
            catalog.setReplicas(s, replicas);
            crs::saveStoreSlice(dir + "/slice-" + std::to_string(s),
                                built, sym, slices[s]);
        }
    }

    std::vector<InProcessBackend> backends(kShards * kReplicas);
    net::RouterConfig router_config;
    for (std::uint32_t i = 0; i < kShards * kReplicas; ++i) {
        InProcessBackend &b = backends[i];
        b.store = std::make_unique<crs::PredicateStore>(crs::loadStore(
            dir + "/slice-" + std::to_string(i / kReplicas),
            b.symbols));
        b.server = std::make_unique<crs::ClauseRetrievalServer>(
            b.symbols, *b.store);
        b.net = std::make_unique<net::NetServer>(b.symbols, *b.store,
                                                 *b.server);
        b.net->start();
        router_config.backendPorts.push_back(b.net->port());
    }
    net::Router router(router_config);
    router.setCatalog(catalog);
    router.start();

    const std::uint64_t full_bytes =
        built.dataBytes() + built.indexBytes();

    Table t("Sharded cluster (3 shards x 2 replicas, catalog-routed "
            "scatter/gather)");
    t.header({"Backend", "Store bytes", "Of full", "Predicates"});
    json::Value backend_rows = json::Value::array();
    for (std::uint32_t i = 0; i < backends.size(); ++i) {
        const crs::PredicateStore &s = *backends[i].store;
        std::uint64_t bytes = s.dataBytes() + s.indexBytes();
        char frac[32];
        std::snprintf(frac, sizeof(frac), "%.2fx", full_bytes > 0
                          ? static_cast<double>(bytes) / full_bytes
                          : 0.0);
        t.row({"shard " + std::to_string(i / kReplicas) + " replica " +
                   std::to_string(i % kReplicas),
               std::to_string(bytes), frac,
               std::to_string(s.predicates().size())});
        json::Value row = json::Value::object();
        row.set("sweep", "sharded_cluster_backend");
        row.set("backend", i);
        row.set("shard", i / kReplicas);
        row.set("store_bytes", bytes);
        row.set("full_store_bytes", full_bytes);
        row.set("predicates", s.predicates().size());
        backend_rows.push(std::move(row));
    }
    t.row({"full store", std::to_string(full_bytes), "1.00x",
           std::to_string(built.predicates().size())});

    // The mixed-predicate batch through the wire, merged in batch
    // order, vs the unsharded local batch front door.
    std::vector<crs::RetrievalRequest> batch;
    for (const term::ParsedTerm &g : goals) {
        crs::RetrievalRequest request;
        request.arena = &g.arena;
        request.goal = g.root;
        batch.push_back(request);
    }
    crs::ClauseRetrievalServer local(sym, built);
    net::NetClient client(router.port(), "shard-bench");

    using Clock = std::chrono::steady_clock;
    auto wire_begin = Clock::now();
    std::vector<crs::RetrievalResponse> wire = client.serveBatch(batch);
    double wire_seconds =
        std::chrono::duration<double>(Clock::now() - wire_begin).count();
    auto local_begin = Clock::now();
    std::vector<crs::RetrievalResponse> ref = local.serveBatch(batch);
    double local_seconds =
        std::chrono::duration<double>(Clock::now() - local_begin)
            .count();
    bool identical = wire.size() == ref.size();
    for (std::size_t i = 0; identical && i < wire.size(); ++i)
        identical = net::responsesIdentical(wire[i], ref[i]);

    char wirebuf[32], localbuf[32];
    std::snprintf(wirebuf, sizeof(wirebuf), "%.1f ms",
                  wire_seconds * 1e3);
    std::snprintf(localbuf, sizeof(localbuf), "%.1f ms",
                  local_seconds * 1e3);
    t.row({"batch 96 (wire)", wirebuf, "-",
           identical ? "identical" : "MISMATCH"});
    t.row({"batch 96 (local)", localbuf, "-", "-"});
    t.print(std::cout);
    std::printf("shape: each backend holds ~1/%u of the store (the "
                "full symbol table rides along\nas shared schema), "
                "and the catalog-routed scatter/gather merge is "
                "bit-identical to\nthe unsharded serveBatch().\n\n",
                kShards);

    json::Value row = json::Value::object();
    row.set("sweep", "sharded_cluster");
    row.set("shards", kShards);
    row.set("replicas", kReplicas);
    row.set("backends", std::move(backend_rows));
    row.set("batch_items", batch.size());
    row.set("wire_seconds", wire_seconds);
    row.set("local_seconds", local_seconds);
    row.set("identical", identical);
    row.set("subbatches", static_cast<std::uint64_t>(
        router.metrics().counter("router.subbatches").value()));
    json_rows.push(std::move(row));

    router.stop();
    for (InProcessBackend &b : backends)
        b.net->stop();
    std::filesystem::remove_all(dir);

    if (!identical)
        std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string json_path = bench::jsonPathArg(argc, argv);
    bench::CacheKnobs cache_knobs = bench::cacheConfigArg(argc, argv);
    LoadGenKnobs lg_knobs = loadGenConfigArg(argc, argv);
    json::Value json_rows = json::Value::array();

    repeatedGoalCacheSweep(json_rows, cache_knobs);
    liveWriteMixSweep(writeMixArg(argc, argv), json_rows);
    minorCompactionSweep(json_rows);
    if (lg_knobs.enabled) {
        routerLoadSweep(lg_knobs, json_rows);
        shardedClusterSweep(json_rows);
    }
    if (!bench::writeBenchJson(json_path, "multi_client",
                               std::move(json_rows)))
        return 1;
    return 0;
}
