/**
 * @file
 * keyed_cold: in-process ClauseRetrievalServer::serve() with the
 * shipped defaults (caches off), closed loop from one caller thread,
 * over the reference KB of 4 x 5000 arity-2 facts.  Goals come from
 * workload::QueryGenerator over stored heads, so auto mode takes the
 * FS1, FS2 and software paths; one draw in 8 binds the first argument
 * and puts a variable inside a structured second argument, which is
 * the shape auto mode sends through the two-stage FS1+FS2 filter.
 * The host pipeline does all the work here and the cache and wire do
 * none.
 */

#include <memory>
#include <vector>

#include "crs/server.hh"
#include "replay.hh"
#include "support/random.hh"
#include "term/symbol_table.hh"
#include "workload/query_generator.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::uint32_t kFacts = 5000;
constexpr std::size_t kGoals = 512;
/** Chance QueryGenerator keeps a head argument bound. */
constexpr double kBoundArgProb = 0.75;
/**
 * Goals per search mode (software, FS1, FS2, two-stage): close to the
 * shares QueryGenerator produces at kBoundArgProb, plus the two-stage
 * goals.  The full-scan modes stay rare enough that p99_us falls
 * inside the software-scan goals rather than on the edge of a class.
 */
constexpr std::size_t kModeQuota[crs::kSearchModeCount] = {12, 464, 4, 32};
static_assert(12 + 464 + 4 + 32 == kGoals);

struct Goal
{
    term::TermArena arena;
    term::TermRef root = term::kNoTerm;
};

/**
 * pK(t, s(X, ...)) from a stored head pK(t, s(...)) whose second
 * argument is a structure, or an empty goal when the sampled heads
 * carry none.
 */
Goal
twoStageGoal(term::SymbolTable &symbols, const term::Program &program,
             const term::PredicateId &pred, Rng &rng)
{
    const std::vector<std::size_t> &ordinals = program.clausesOf(pred);
    for (int attempt = 0; attempt < 64; ++attempt) {
        const term::Clause &clause =
            program.clause(ordinals[rng.below(ordinals.size())]);
        const term::TermArena &src = clause.arena();
        term::TermRef second = src.arg(clause.head(), 1);
        if (src.kind(second) != term::TermKind::Struct)
            continue;
        Goal goal;
        term::TermRef head =
            goal.arena.import(src, clause.head(), 0);
        term::TermRef inner = goal.arena.arg(head, 1);
        std::vector<term::TermRef> inner_args;
        inner_args.push_back(goal.arena.makeVar(
            goal.arena.varCeiling(), symbols.intern("X")));
        for (std::uint32_t i = 1; i < goal.arena.arity(inner); ++i)
            inner_args.push_back(goal.arena.arg(inner, i));
        term::TermRef args[] = {
            goal.arena.arg(head, 0),
            goal.arena.makeStruct(goal.arena.functor(inner), inner_args),
        };
        goal.root = goal.arena.makeStruct(goal.arena.functor(head), args);
        return goal;
    }
    return Goal{};
}

struct State
{
    term::SymbolTable symbols;
    term::Program program;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
    std::vector<Goal> goals;
};

/** Generate, build, serve the warm-up; everything setup_s times. */
std::unique_ptr<State>
buildState(std::uint64_t seed)
{
    auto st = std::make_unique<State>();
    workload::KbGenerator generator(st->symbols);
    st->program = generator.generate(referenceKb(kFacts, seed));
    st->store = std::make_unique<crs::PredicateStore>(
        st->symbols, scw::CodewordGenerator{});
    st->store->addProgram(st->program);
    st->store->finalize();
    st->server = std::make_unique<crs::ClauseRetrievalServer>(
        st->symbols, *st->store, crs::CrsConfig{});

    // The pool holds a fixed quota of goals per search mode and
    // predicate, so the mode mix (and with it the latency mix) is the
    // same at every seed; the goals themselves are drawn from the seed.
    workload::QuerySpec qspec;
    qspec.seed = seed ^ 0x5eedULL;
    qspec.boundArgProb = kBoundArgProb;
    workload::QueryGenerator queries(st->symbols, qspec);
    Rng rng(seed * 31 + 7);
    const std::vector<term::PredicateId> &preds =
        st->program.predicates();
    std::vector<std::vector<Goal>> by_mode(crs::kSearchModeCount);
    std::vector<std::vector<std::size_t>> taken(
        crs::kSearchModeCount, std::vector<std::size_t>(preds.size()));
    std::size_t filled = 0;
    for (std::uint64_t draw = 0; filled < kGoals; ++draw) {
        const std::size_t p = rng.below(preds.size());
        const term::PredicateId &pred = preds[p];
        Goal goal;
        if (draw % 8 == 7) {
            goal = twoStageGoal(st->symbols, st->program, pred, rng);
            if (goal.root == term::kNoTerm)
                continue;
        } else {
            workload::GeneratedQuery q =
                queries.generate(st->program, pred);
            goal = Goal{std::move(q.arena), q.goal};
        }
        auto m = static_cast<std::size_t>(
            st->server->selectMode(goal.arena, goal.root));
        if (taken[m][p] < kModeQuota[m] / preds.size()) {
            ++taken[m][p];
            by_mode[m].push_back(std::move(goal));
            ++filled;
        }
    }
    // Interleave the modes so every stretch of the run sees the mix.
    for (std::size_t i = 0; st->goals.size() < kGoals; ++i) {
        for (std::vector<Goal> &goals : by_mode) {
            const std::size_t stride = kGoals / goals.size();
            if (i % stride == 0 && i / stride < goals.size())
                st->goals.push_back(std::move(goals[i / stride]));
        }
    }

    for (std::uint64_t i = 0; i < kWarmupOps; ++i) {
        const Goal &g = st->goals[i % st->goals.size()];
        crs::RetrievalRequest request;
        request.arena = &g.arena;
        request.goal = g.root;
        st->server->serve(request);
    }
    return st;
}

crs::RetrievalRequest
requestFor(const Goal &goal)
{
    crs::RetrievalRequest request;
    request.arena = &goal.arena;
    request.goal = goal.root;
    return request;
}

/**
 * Check every distinct goal the run served against a SoftwareOnly
 * oracle server: the filters only narrow the candidate set, so the
 * answers must be identical.  Each mismatching goal fails every
 * operation that served it.
 */
void
verifyAgainstOracle(State &st,
                    const std::vector<std::vector<std::uint32_t>> &seen,
                    const std::vector<std::uint64_t> &uses, Result &result)
{
    crs::ClauseRetrievalServer oracle(st.symbols, *st.store,
                                      crs::CrsConfig{});
    for (std::size_t g = 0; g < st.goals.size(); ++g) {
        if (uses[g] == 0)
            continue;
        crs::RetrievalRequest request = requestFor(st.goals[g]);
        request.mode = crs::SearchMode::SoftwareOnly;
        if (oracle.serve(request).answers != seen[g])
            result.failed += uses[g];
    }
}

} // namespace

Result
runKeyedCold(const Args &args)
{
    Result result;
    std::unique_ptr<State> st;
    const double setup = timedSetup([&] {
        st.reset();
        st = buildState(args.seed);
    });

    const std::size_t n = st->goals.size();
    std::vector<std::vector<std::uint32_t>> seen(n);
    std::vector<std::uint64_t> uses(n, 0);
    std::uint64_t checksum = 0;

    // The untraced loop; a traced run spends a share of its time here
    // too, for the trace.overhead baseline.
    const double untraced_seconds =
        args.trace ? args.seconds * 0.3 : args.seconds;
    Timeline latency;
    Samples by_mode[crs::kSearchModeCount];
    std::uint64_t ops = 0;
    Clock::time_point start = Clock::now();
    while (secondsSince(start) < untraced_seconds ||
           (!args.trace && ops < kMinSamples)) {
        const std::size_t g = ops % n;
        crs::RetrievalRequest request = requestFor(st->goals[g]);
        Clock::time_point a = Clock::now();
        crs::RetrievalResponse response = st->server->serve(request);
        Clock::time_point b = Clock::now();
        const double us = micros(a, b);
        latency.record(micros(start, b) / 1e6, us);
        by_mode[static_cast<std::size_t>(response.mode)].record(us);
        if (uses[g]++ == 0)
            seen[g] = response.answers;
        else if (response.answers != seen[g])
            ++result.failed;
        if (ops < kChecksumOps)
            checksum = foldChecksum(checksum, response.elapsed);
        ++ops;
    }
    result.attempted = ops;

    if (args.trace) {
        Tracer tracer;
        RetrievalReplay replay(st->symbols, *st->store, *st->server);
        Samples op_us, serve_us;
        Clock::time_point traced_start = Clock::now();
        std::uint64_t op = 0;
        while (secondsSince(traced_start) < args.seconds * 0.7) {
            const std::size_t g = op % n;
            const Goal &goal = st->goals[g];
            tracer.beginOp(op);
            tracer.open("op");
            ReplayOutcome replayed =
                replay.run(tracer, goal.arena, goal.root);
            op_us.record(tracer.close());

            crs::RetrievalRequest request = requestFor(goal);
            Clock::time_point a = Clock::now();
            crs::RetrievalResponse response = st->server->serve(request);
            serve_us.record(micros(a, Clock::now()));
            ++result.attempted;
            if (uses[g]++ == 0)
                seen[g] = response.answers;
            if (!sameRetrieval(replayed, response) ||
                response.answers != seen[g])
                ++result.failed;
            ++op;
        }
        setRetrievalLayerMetrics(result, tracer, replay.counts());
        ServerCounts counts;
        counts.add(st->server->metrics());
        counts.setMetrics(result);
        result.set("crs.serve_us", serve_us.mean());
        traceWireLayers(args, args.seconds * 0.4, result);
        result.set("trace.overhead",
                   op_us.quantile(0.5) / latency.quantile(0.5) - 1.0);
        const SpanTotals root = tracer.totalsOf("op");
        result.set("trace.unattributed_share",
                   root.totalUs > 0 ? root.selfUs / root.totalUs : 0.0);
        tracer.writeJson(args.traceDir + "/keyed_cold.json",
                         args.workload);
    } else {
        result.set("setup_s", setup);
        result.set("ops_per_s", latency.rate());
        result.set("p50_us", latency.quantile(0.50));
        result.set("p99_us", latency.quantile(0.99));
        result.set("rss_peak_mb", peakRssMb());
    }

    verifyAgainstOracle(*st, seen, uses, result);
    noteRun(result, args, checksum, latency.count(), threadCount());
    result.note("loop", "closed, 1 caller thread");
    for (std::size_t m = 0; m < crs::kSearchModeCount; ++m) {
        const std::string slug =
            crs::searchModeSlug(static_cast<crs::SearchMode>(m));
        result.note("mode." + slug + ".p50_us", by_mode[m].quantile(0.5));
        result.note("mode." + slug + ".p99_us", by_mode[m].quantile(0.99));
    }
    return result;
}

} // namespace perfbench
