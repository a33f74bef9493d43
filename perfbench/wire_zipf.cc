/**
 * @file
 * wire_zipf: NetClient -> Router -> one NetServer backend that loads a
 * persisted copy of the reference KB (4 x 5000 facts).  The caches are
 * on at their default capacities, as `clare_server --cache` runs them;
 * everything else is the shipped default.  Goals pK(aN, B) are drawn
 * Zipf (s = 1) over 1200 keys, several times the L3 capacity of 256,
 * so hits and misses both matter.  Cache, wire codec, syscalls and
 * router relay do most of the work.
 *
 * The measured window is a closed loop on one connection, after the
 * cache was warmed.  The traced run adds the open loop at a fixed rate
 * from 2 connections, whose lateness and latency are reported there:
 * on a shared 4-vCPU host its percentiles swing by a fifth from run to
 * run, too much for a regression bound.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/server.hh"
#include "net/term_codec.hh"
#include "net/wire.hh"
#include "replay.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::uint32_t kFacts = 5000;
constexpr std::uint32_t kKeysPerPredicate = 300;
constexpr std::size_t kSequence = 1u << 16;
constexpr std::uint64_t kWarmRequests = 4000;
/**
 * The traced run's open loop: connections and arrival rate.  The
 * backend's event loop is then about 15% busy, mostly with misses; at
 * higher rates so many hits queue behind a miss that the median sits
 * on the edge between queued and unqueued hits.
 */
constexpr std::uint32_t kOpenConnections = 2;
constexpr double kOpenRate = 1000.0;

struct Goal
{
    term::TermArena arena;
    term::TermRef root = term::kNoTerm;
};

/** The cluster: one backend behind a router, plus the client side. */
struct State
{
    term::SymbolTable symbols;
    term::Program program;
    std::vector<Goal> keys;
    /** Key index of each request, Zipf-distributed. */
    std::vector<std::uint32_t> sequence;

    // Backend process state, loaded from the persisted store.
    term::SymbolTable backendSymbols;
    std::unique_ptr<crs::PredicateStore> backendStore;
    std::unique_ptr<crs::ClauseRetrievalServer> backend;
    std::unique_ptr<net::NetServer> netServer;
    std::unique_ptr<net::Router> router;

    ~State()
    {
        if (router)
            router->stop();
        if (netServer)
            netServer->stop();
    }
};

crs::CrsConfig
cachedConfig()
{
    crs::CrsConfig config;
    config.cache.enabled = true;
    return config;
}

crs::RetrievalRequest
requestFor(const Goal &goal)
{
    crs::RetrievalRequest request;
    request.arena = &goal.arena;
    request.goal = goal.root;
    return request;
}

std::unique_ptr<State>
buildState(std::uint64_t seed, const std::string &dir)
{
    auto st = std::make_unique<State>();
    workload::KbGenerator generator(st->symbols);
    st->program = generator.generate(referenceKb(kFacts, seed));

    // Goals are parsed before the store is saved, so their symbols are
    // part of the persisted schema the backend loads.
    term::TermReader reader(st->symbols);
    Rng rng(seed * 17 + 5);
    for (const term::PredicateId &pred : st->program.predicates()) {
        const std::string functor = st->symbols.name(pred.functor);
        std::vector<std::uint32_t> atoms(2000);
        for (std::uint32_t i = 0; i < atoms.size(); ++i)
            atoms[i] = i;
        for (std::uint32_t i = 0; i < kKeysPerPredicate; ++i) {
            std::swap(atoms[i], atoms[i + rng.below(atoms.size() - i)]);
            term::ParsedTerm parsed = reader.parseTerm(
                functor + "(a" + std::to_string(atoms[i]) + ", B)");
            st->keys.push_back(Goal{std::move(parsed.arena), parsed.root});
        }
    }
    // Zipf(1) over popularity ranks; ranks map to keys through a
    // seeded shuffle so hot keys spread over all predicates.
    std::vector<std::uint32_t> by_rank(st->keys.size());
    for (std::uint32_t i = 0; i < by_rank.size(); ++i)
        by_rank[i] = i;
    for (std::size_t i = by_rank.size(); i > 1; --i)
        std::swap(by_rank[i - 1], by_rank[rng.below(i)]);
    std::vector<double> cdf(by_rank.size());
    double total = 0.0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf[r] = total;
    }
    for (std::size_t i = 0; i < kSequence; ++i) {
        double u = rng.uniform() * total;
        auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        st->sequence.push_back(by_rank[std::min(rank, cdf.size() - 1)]);
    }

    crs::PredicateStore built(st->symbols, scw::CodewordGenerator{});
    built.addProgram(st->program);
    built.finalize();
    std::filesystem::remove_all(dir);
    crs::saveStore(dir, built, st->symbols);

    st->backendStore = std::make_unique<crs::PredicateStore>(
        crs::loadStore(dir, st->backendSymbols));
    st->backend = std::make_unique<crs::ClauseRetrievalServer>(
        st->backendSymbols, *st->backendStore, cachedConfig());
    st->netServer = std::make_unique<net::NetServer>(
        st->backendSymbols, *st->backendStore, *st->backend);
    st->netServer->start();
    net::RouterConfig router_config;
    router_config.backendPorts.push_back(st->netServer->port());
    router_config.replication = 1;
    st->router = std::make_unique<net::Router>(router_config);
    st->router->start();

    net::NetClient warm(st->router->port(), "perfbench-warm");
    for (std::uint64_t i = 0; i < kWarmRequests; ++i)
        warm.serve(requestFor(st->keys[st->sequence[i % kSequence]]));
    return st;
}

/** What one load run measured. */
struct Load
{
    Timeline latency;
    Samples lag;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Keys the run requested. */
    std::vector<bool> drawn;
    /** Threads of the process while every connection was sending. */
    unsigned threads = 0;
};

/**
 * Drive the router from @p connections client connections for
 * @p seconds, request i taking key sequence[first + i] on connection
 * i mod @p connections.  With @p rate == 0 the loop is closed: each
 * connection sends its next request when the previous answer lands.
 * With @p rate > 0 it is open: request i is due at start + i / rate,
 * latency counts from the due time (so a stall also charges the
 * requests queued behind it), and lag is how late the sender issued it.
 */
Load
runLoad(const State &st,
        const std::vector<std::vector<std::uint32_t>> &expected,
        double seconds, std::uint64_t first, std::uint32_t connections,
        double rate)
{
    std::vector<Load> per(connections);
    const Clock::time_point start = Clock::now();
    auto drive = [&](std::uint32_t c) {
        // Wake at the due time, not up to the default 50 us timer
        // slack after it.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        net::NetClient client(st.router->port(),
                              "perfbench-" + std::to_string(c));
        Load &mine = per[c];
        mine.drawn.assign(st.keys.size(), false);
        for (std::uint64_t i = c;; i += connections) {
            Clock::time_point due = Clock::now();
            if (rate > 0) {
                due = start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(
                        static_cast<double>(i) * 1e9 / rate));
            }
            if (micros(start, due) >= seconds * 1e6)
                break;
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            const std::uint32_t key =
                st.sequence[(first + i) % kSequence];
            mine.drawn[key] = true;
            ++mine.attempted;
            try {
                crs::RetrievalResponse r =
                    client.serve(requestFor(st.keys[key]));
                const Clock::time_point done = Clock::now();
                mine.latency.record(micros(start, done) / 1e6,
                                    micros(due, done));
                if (r.answers != expected[key])
                    ++mine.failed;
            } catch (const std::exception &) {
                ++mine.failed;
            }
            mine.lag.record(micros(due, sent));
            if (i == c)
                mine.threads = threadCount();
        }
    };
    std::vector<std::thread> others;
    for (std::uint32_t c = 1; c < connections; ++c)
        others.emplace_back(drive, c);
    drive(0);
    for (std::thread &t : others)
        t.join();

    Load result;
    result.drawn.assign(st.keys.size(), false);
    for (const Load &p : per) {
        result.attempted += p.attempted;
        result.failed += p.failed;
        result.latency.append(p.latency);
        result.lag.append(p.lag);
        result.threads = std::max(result.threads, p.threads);
        for (std::size_t k = 0; k < p.drawn.size(); ++k)
            result.drawn[k] = result.drawn[k] || p.drawn[k];
    }
    return result;
}

} // namespace

Result
runWireZipf(const Args &args)
{
    Result result;
    const std::string dir = args.workDir + "/wire_store";
    std::unique_ptr<State> st;
    const double setup = timedSetup([&] {
        st.reset();
        st = buildState(args.seed, dir);
    });

    // Oracle: a cache-off local server over a store loaded from the
    // same persisted files.
    term::SymbolTable local_symbols;
    crs::PredicateStore local_store = crs::loadStore(dir, local_symbols);
    crs::ClauseRetrievalServer local(local_symbols, local_store);
    std::vector<crs::RetrievalResponse> reference;
    std::vector<std::vector<std::uint32_t>> expected;
    for (const Goal &goal : st->keys) {
        reference.push_back(local.serve(requestFor(goal)));
        expected.push_back(reference.back().answers);
    }

    const double closed_seconds =
        args.trace ? args.seconds * 0.2 : args.seconds;
    Load closed = runLoad(*st, expected, closed_seconds, kWarmRequests, 1,
                          0.0);
    result.attempted = closed.attempted;
    result.failed = closed.failed;
    std::vector<bool> drawn = closed.drawn;

    if (args.trace) {
        // The open loop: how late the generator runs, and the cache hit
        // ratio under the Zipf mix.
        ServerCounts before;
        before.add(st->backend->metrics());
        Load open = runLoad(*st, expected, args.seconds * 0.3,
                            kWarmRequests, kOpenConnections, kOpenRate);
        ServerCounts during;
        during.add(st->backend->metrics());
        during.subtract(before);
        result.attempted += open.attempted;
        result.failed += open.failed;
        for (std::size_t k = 0; k < drawn.size(); ++k)
            drawn[k] = drawn[k] || open.drawn[k];
        result.note("open_loop",
                    std::to_string(kOpenConnections) + " connections at " +
                        std::to_string(static_cast<int>(kOpenRate)) +
                        " requests/s");
        result.note("open_loop.p50_us", open.latency.quantile(0.50));
        result.note("open_loop.p99_us", open.latency.quantile(0.99));
        result.note("open_loop.threads", static_cast<double>(open.threads));
        during.setMetrics(result);
        result.set("loadgen.lag_p99_us", open.lag.quantile(0.99));

        // Closed loop on one connection per path, each goal warmed
        // first, so the hop metrics isolate wire and relay cost on the
        // cache-hit path every Zipf head takes.
        net::NetClient routed(st->router->port(), "perfbench-routed");
        net::NetClient direct(st->netServer->port(), "perfbench-direct");
        crs::ClauseRetrievalServer local_cached(local_symbols, local_store,
                                                cachedConfig());
        Tracer tracer;
        Samples plain_us, op_us, local_us, codec_us, direct_us;
        const Clock::time_point start = Clock::now();
        std::uint64_t op = 0;
        while (secondsSince(start) < args.seconds * 0.5) {
            const bool traced = op % 2 == 1;
            const std::uint32_t key = st->sequence[op % kSequence];
            const crs::RetrievalRequest request =
                requestFor(st->keys[key]);
            direct.serve(request);
            local_cached.serve(request);
            ++result.attempted;
            if (!traced) {
                Clock::time_point a = Clock::now();
                crs::RetrievalResponse r = routed.serve(request);
                plain_us.record(micros(a, Clock::now()));
                if (r.answers != expected[key])
                    ++result.failed;
                ++op;
                continue;
            }
            tracer.beginOp(op);
            tracer.open("op");
            crs::RetrievalResponse r = routed.serve(request);
            op_us.record(tracer.close());
            if (r.answers != expected[key])
                ++result.failed;

            tracer.open("crs.serve");
            crs::RetrievalResponse served = local_cached.serve(request);
            local_us.record(tracer.close());

            tracer.open("net.codec");
            net::WireRequest wire;
            wire.id = op;
            wire.predicate = term::PredicateId{
                request.arena->functor(request.goal),
                request.arena->arity(request.goal)};
            net::encodeGoal(*request.arena, request.goal, wire.goalPif);
            std::vector<std::uint8_t> req_bytes = net::encodeRequest(wire);
            net::WireRequest decoded =
                net::decodeRequest(req_bytes, "perfbench");
            std::vector<std::uint8_t> resp_bytes =
                net::encodeResponse(decoded.id, served);
            net::WireResponse back =
                net::decodeResponse(resp_bytes, "perfbench");
            codec_us.record(tracer.close());
            if (!net::responsesIdentical(back.response, served))
                ++result.failed;

            tracer.open("net.direct");
            direct.serve(request);
            direct_us.record(tracer.close());
            ++op;
        }
        result.set("crs.serve_us", local_us.mean());
        result.set("net.codec_us", codec_us.mean());
        result.set("net.hop_us", direct_us.mean() - local_us.mean());
        result.set("router.hop_us", op_us.mean() - direct_us.mean());
        result.set("trace.overhead",
                   op_us.quantile(0.5) / plain_us.quantile(0.5) - 1.0);
        // Only the local serve and the codec are function calls a span
        // can wrap; syscalls, wakeups and the relay are the rest.
        result.set("trace.unattributed_share",
                   1.0 - (local_us.mean() + codec_us.mean()) /
                       op_us.mean());
        tracer.writeJson(args.traceDir + "/wire_zipf.json",
                         args.workload);
    } else {
        result.set("setup_s", setup);
        result.set("ops_per_s", closed.latency.rate());
        result.set("p50_us", closed.latency.quantile(0.50));
        result.set("p99_us", closed.latency.quantile(0.99));
        result.set("rss_peak_mb", peakRssMb());
    }

    // Every distinct goal the run drew, through the router with the
    // caches bypassed, is bit-identical to the local serve().
    net::NetClient verify(st->router->port(), "perfbench-verify");
    std::uint64_t checksum = 0;
    for (std::size_t k = 0; k < st->keys.size(); ++k) {
        if (!drawn[k] && k >= kChecksumOps)
            continue;
        crs::RetrievalRequest request = requestFor(st->keys[k]);
        request.bypassCache = true;
        crs::RetrievalResponse r = verify.serve(request);
        if (!net::responsesIdentical(r, reference[k]))
            result.fail("routed response differs from local serve() "
                        "for key " + std::to_string(k));
        if (k < kChecksumOps)
            checksum = foldChecksum(checksum, r.elapsed);
    }
    const std::uint64_t failovers =
        st->router->metrics().counter("router.failovers").value();
    result.set("router.failovers", static_cast<double>(failovers));
    if (failovers != 0)
        result.fail("router failed over " + std::to_string(failovers) +
                    " times");

    noteRun(result, args, checksum, closed.latency.count(),
            closed.threads);
    result.note("threads_detail",
                "client connection, router event loop, router probe "
                "thread (sleeps between 500 ms probes), backend event "
                "loop");
    result.note("loop", "closed, 1 connection through the router");
    st.reset();
    std::filesystem::remove_all(dir);
    return result;
}

void
traceWireLayers(const Args &args, double seconds, Result &result)
{
    Args wire_args = args;
    wire_args.workload = "wire_zipf";
    wire_args.trace = true;
    wire_args.seconds = seconds;
    const Result wire = runWireZipf(wire_args);
    for (const char *name : {"net.codec_us", "net.hop_us", "router.hop_us",
                             "router.failovers", "loadgen.lag_p99_us"})
        result.set(name, wire.metrics.at(name));
    result.note("wire_zipf.crs.cache.hit_ratio",
                wire.metrics.at("crs.cache.hit_ratio"));
    result.attempted += wire.attempted;
    result.failed += wire.failed;
    if (wire.checkFailed)
        result.fail("wire_zipf layer run failed a check");
}

} // namespace perfbench
