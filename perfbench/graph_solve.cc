/**
 * @file
 * graph_solve: kb::Solver over a seeded random digraph edge/2 of 400
 * nodes and 3000 distinct edges, disk-resident after compile(), with
 * the shipped defaults.  Queries are two-hop path2/2 and triangle tri/3
 * rules from random start nodes, closed loop from one thread.  This is
 * the only workload through kb: each solve issues many small keyed and
 * fully bound retrievals, and every candidate is parsed twice (once by
 * the server's host unification, once by clausesFor).
 */

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "replay.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 400;
constexpr std::uint32_t kEdges = 3000;
constexpr std::size_t kQueries = 1024;

struct Query
{
    bool triangle = false;
    std::uint32_t start = 0;
    std::string text;
    /** Solutions in resolution order, as the solver renders them. */
    std::vector<std::map<std::string, std::string>> expected;
};

std::string
node(std::uint32_t n)
{
    std::string name = "n";
    name += std::to_string(n);
    return name;
}

struct State
{
    /** Edges in source (consult) order. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    /** Successors of each node, in source order. */
    std::vector<std::vector<std::uint32_t>> out;
    std::set<std::pair<std::uint32_t, std::uint32_t>> edgeSet;
    std::unique_ptr<kb::KnowledgeBase> kb;
    std::vector<Query> queries;
};

/**
 * Solutions by a direct join over the edge list, in the order SLD
 * resolution visits them: clause (source) order at every goal.
 */
std::vector<std::map<std::string, std::string>>
join(const State &st, const Query &q)
{
    std::vector<std::map<std::string, std::string>> sols;
    for (std::uint32_t y : st.out[q.start]) {
        for (std::uint32_t z : st.out[y]) {
            if (!q.triangle)
                sols.push_back({{"Z", node(z)}});
            else if (st.edgeSet.count({z, q.start}) != 0)
                sols.push_back({{"Y", node(y)}, {"Z", node(z)}});
        }
    }
    return sols;
}

std::unique_ptr<State>
buildState(std::uint64_t seed)
{
    auto st = std::make_unique<State>();
    Rng rng(seed * 0x9e37ULL + 11);
    st->out.resize(kNodes);
    // Every node gets out-degree 7 or 8 with random distinct targets,
    // so a solve's cost depends on the query shape, not on whether the
    // seed happened to give its start node a hub.  Source order is a
    // seeded shuffle of the edges.
    for (std::uint32_t from = 0; from < kNodes; ++from) {
        const std::uint32_t degree =
            kEdges / kNodes + (from < kEdges % kNodes ? 1 : 0);
        for (std::uint32_t k = 0; k < degree;) {
            auto to = static_cast<std::uint32_t>(rng.below(kNodes));
            if (to == from || !st->edgeSet.insert({from, to}).second)
                continue;
            st->edges.emplace_back(from, to);
            ++k;
        }
    }
    for (std::size_t i = st->edges.size(); i > 1; --i)
        std::swap(st->edges[i - 1], st->edges[rng.below(i)]);
    for (const auto &[from, to] : st->edges)
        st->out[from].push_back(to);

    std::string text;
    for (const auto &[from, to] : st->edges)
        text += "edge(" + node(from) + ", " + node(to) + ").\n";
    text += "path2(X, Z) :- edge(X, Y), edge(Y, Z).\n"
            "tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n";
    st->kb = std::make_unique<kb::KnowledgeBase>();
    st->kb->consult(text);
    st->kb->compile();

    // Every fourth query is a triangle, so the mix is the same at every
    // seed and p50_us falls inside the path2 solves, not on the edge
    // between the two classes.
    for (std::size_t i = 0; i < kQueries; ++i) {
        Query q;
        q.triangle = i % 4 == 3;
        q.start = static_cast<std::uint32_t>(rng.below(kNodes));
        q.text = q.triangle ? "tri(" + node(q.start) + ", Y, Z)"
                            : "path2(" + node(q.start) + ", Z)";
        st->queries.push_back(std::move(q));
    }

    kb::Solver solver(*st->kb);
    for (std::uint64_t i = 0; i < kWarmupOps / 4; ++i)
        solver.solve(st->queries[i % st->queries.size()].text);
    return st;
}

bool
matches(const std::vector<kb::Solution> &got,
        const std::vector<std::map<std::string, std::string>> &want)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].bindings != want[i])
            return false;
    }
    return true;
}

/**
 * The retrievals the solver issues for @p q, in order: edge(X, Y) for
 * the start node, then edge(y, Z) per successor y, and for tri/3
 * edge(z, X) per two-hop node z.
 */
std::vector<std::string>
retrievalGoals(const State &st, const Query &q)
{
    std::vector<std::string> goals{"edge(" + node(q.start) + ", Y)"};
    for (std::uint32_t y : st.out[q.start]) {
        goals.push_back("edge(" + node(y) + ", Z)");
        if (!q.triangle)
            continue;
        for (std::uint32_t z : st.out[y])
            goals.push_back("edge(" + node(z) + ", " + node(q.start) +
                            ")");
    }
    return goals;
}

} // namespace

Result
runGraphSolve(const Args &args)
{
    Result result;
    std::unique_ptr<State> st;
    const double setup = timedSetup([&] {
        st.reset();
        st = buildState(args.seed);
    });
    for (Query &q : st->queries)
        q.expected = join(*st, q);

    kb::Solver solver(*st->kb);
    const std::size_t n = st->queries.size();
    std::uint64_t checksum = 0;
    const double untraced_seconds =
        args.trace ? args.seconds * 0.3 : args.seconds;
    Timeline latency;
    std::uint64_t ops = 0;
    Clock::time_point start = Clock::now();
    while (secondsSince(start) < untraced_seconds ||
           (!args.trace && ops < kMinSamples)) {
        const Query &q = st->queries[ops % n];
        Clock::time_point a = Clock::now();
        std::vector<kb::Solution> sols = solver.solve(q.text);
        Clock::time_point b = Clock::now();
        latency.record(micros(start, b) / 1e6, micros(a, b));
        if (!matches(sols, q.expected) || solver.stats().budgetExhausted)
            ++result.failed;
        if (ops < kChecksumOps) {
            checksum = foldChecksum(checksum, solver.stats().retrievalTime);
            checksum = foldChecksum(checksum, solver.stats().steps);
        }
        ++ops;
    }
    result.attempted = ops;

    if (args.trace) {
        Tracer tracer;
        crs::ClauseRetrievalServer &server = st->kb->server();
        RetrievalReplay replay(st->kb->symbols(), st->kb->store(), server);
        term::TermReader reader(st->kb->symbols());
        Samples op_us, clauses_for_us, serve_us;
        double retrievals = 0, steps = 0, replay_mismatch = 0;
        Clock::time_point traced_start = Clock::now();
        std::uint64_t op = 0;
        while (secondsSince(traced_start) < args.seconds * 0.7) {
            const Query &q = st->queries[op % n];
            tracer.beginOp(op);
            tracer.open("op");
            std::vector<kb::Solution> sols;
            {
                Span s(&tracer, "kb.solve");
                sols = solver.solve(q.text);
            }
            op_us.record(tracer.close());
            ++result.attempted;
            if (!matches(sols, q.expected))
                ++result.failed;
            retrievals += solver.stats().retrievals;
            steps += solver.stats().steps;

            // The same retrievals back to back through the kb entry, as
            // the solver issues them, then decomposed into the
            // retrieval layers.
            std::vector<term::ParsedTerm> goals;
            for (const std::string &text : retrievalGoals(*st, q))
                goals.push_back(reader.parseTerm(text));
            if (goals.size() != solver.stats().retrievals)
                ++replay_mismatch;
            std::vector<kb::RetrievedClauses> got;
            for (const term::ParsedTerm &goal : goals) {
                tracer.open("kb.clauses_for");
                got.push_back(st->kb->clausesFor(goal.arena, goal.root));
                clauses_for_us.record(tracer.close());
            }
            for (std::size_t g = 0; g < goals.size(); ++g) {
                const term::ParsedTerm &goal = goals[g];
                ReplayOutcome replayed =
                    replay.run(tracer, goal.arena, goal.root);
                if (!got[g].retrieval ||
                    !sameRetrieval(replayed, *got[g].retrieval))
                    ++replay_mismatch;
                crs::RetrievalRequest request;
                request.arena = &goal.arena;
                request.goal = goal.root;
                Clock::time_point a = Clock::now();
                server.serve(request);
                serve_us.record(micros(a, Clock::now()));
            }
            ++op;
        }
        if (replay_mismatch > 0)
            result.fail("retrieval replay disagrees with the solver's "
                        "retrievals");
        setRetrievalLayerMetrics(result, tracer, replay.counts());
        ServerCounts counts;
        counts.add(server.metrics());
        counts.setMetrics(result);
        const double solves = op == 0 ? 1.0 : static_cast<double>(op);
        const double per_solve = retrievals / solves;
        result.set("crs.serve_us", serve_us.mean());
        result.set("kb.retrievals_per_solve", per_solve);
        result.set("kb.steps_per_solve", steps / solves);
        result.set("kb.clauses_for_us", clauses_for_us.mean());
        const double self_us =
            op_us.mean() - per_solve * clauses_for_us.mean();
        result.set("kb.resolve_self_us", self_us);
        result.set("trace.overhead",
                   op_us.quantile(0.5) / latency.quantile(0.5) - 1.0);
        // Spans cannot reach inside the solver: its time outside
        // clausesFor is the unattributed share.
        result.set("trace.unattributed_share",
                   op_us.mean() > 0 ? self_us / op_us.mean() : 0.0);
        tracer.writeJson(args.traceDir + "/graph_solve.json",
                         args.workload);
    } else {
        result.set("setup_s", setup);
        result.set("ops_per_s", latency.rate());
        result.set("p50_us", latency.quantile(0.50));
        result.set("p99_us", latency.quantile(0.99));
        result.set("rss_peak_mb", peakRssMb());
    }

    noteRun(result, args, checksum, latency.count(), threadCount());
    result.note("loop", "closed, 1 caller thread");
    return result;
}

} // namespace perfbench
