/**
 * @file
 * Quickstart: consult a small program, compile the big predicate to
 * the disk-resident store, and run queries through the full stack —
 * parser, knowledge base, CLARE retrieval, and SLD resolution.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"

namespace {

/** Say which limit cut the last proof short, if one did. */
void
reportStop(const clare::kb::Solver &solver)
{
    if (const char *stop = solver.stats().stopReason())
        std::printf("   stopped: the %s ran out\n", stop);
}

} // namespace

int
main()
{
    using namespace clare;

    // 1. A knowledge base whose predicates become disk-resident once
    //    they reach 8 clauses (absurdly low, to show the machinery).
    kb::KbConfig config;
    config.largeThreshold = 8;
    kb::KnowledgeBase base(config);

    // 2. Consult a program: facts and rules, in source order, mixed
    //    relations allowed.
    base.consult(R"prolog(
        % A small route network.
        edge(edinburgh, glasgow, 76).
        edge(edinburgh, newcastle, 193).
        edge(glasgow, carlisle, 157).
        edge(newcastle, carlisle, 94).
        edge(carlisle, manchester, 193).
        edge(manchester, birmingham, 139).
        edge(birmingham, london, 190).
        edge(newcastle, leeds, 150).
        edge(leeds, manchester, 70).
        edge(glasgow, glasgow, 0).          % a reflexive edge

        % Reachability rules (a mixed, recursive predicate).
        path(A, B) :- edge(A, B, _).
        path(A, B) :- edge(A, C, _), path(C, B).
    )prolog");

    // 3. Compile: edge/3 (10 clauses) goes to the CLARE-backed store;
    //    path/2 stays in memory.
    base.compile();
    std::printf("knowledge base: %zu clauses; edge/3 is %s\n\n",
                base.clauseCount(),
                base.isLarge(term::PredicateId{
                    base.symbols().lookup("edge"), 3})
                    ? "disk-resident (retrieved via CLARE)"
                    : "in memory");

    // 4. Ask queries.
    kb::Solver solver(base);

    std::printf("?- edge(edinburgh, Where, Miles).\n");
    for (const auto &s : solver.solve("edge(edinburgh, Where, Miles)"))
        std::printf("   Where = %s, Miles = %s\n",
                    s.bindings.at("Where").c_str(),
                    s.bindings.at("Miles").c_str());
    reportStop(solver);

    std::printf("\n?- edge(X, X, _).        %% shared variable\n");
    for (const auto &s : solver.solve("edge(X, X, _)"))
        std::printf("   X = %s\n", s.bindings.at("X").c_str());
    reportStop(solver);

    std::printf("\n?- path(edinburgh, london).\n");
    kb::SolveOptions one;
    one.maxSolutions = 1;
    auto reachable = solver.solve("path(edinburgh, london)", one);
    if (!reachable.empty() || solver.stats().stopReason() == nullptr)
        std::printf("   %s\n", reachable.empty() ? "no" : "yes");
    reportStop(solver);

    // 5. What did CLARE do for us?
    const kb::SolveStats &stats = solver.stats();
    std::printf("\nlast query: %llu CLARE retrievals, %llu candidates, "
                "%llu false drops,\nmodeled retrieval latency %llu us\n",
                static_cast<unsigned long long>(stats.retrievals),
                static_cast<unsigned long long>(
                    stats.candidatesRetrieved),
                static_cast<unsigned long long>(
                    stats.retrievalFalseDrops),
                static_cast<unsigned long long>(
                    stats.retrievalTime / kMicrosecond));
    return 0;
}
