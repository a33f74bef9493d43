/**
 * @file
 * An interactive shell over the integrated knowledge base: a tiny
 * Prolog top level whose clause retrieval runs through the CLARE
 * stack for large predicates.
 *
 * Commands:
 *   ?- goal1, goal2.        run a query (prints bindings)
 *   :consult file.pl        consult a program file
 *   :assert clause.         add one clause (before compilation)
 *   :compile                classify predicates, build the store
 *   :stats                  retrieval statistics of the last query
 *   :listing                print the consulted program
 *   :halt                   leave
 *
 * Anything else is treated as a query.  Non-interactive use:
 *   echo 'p(a). % ...' > kb.pl
 *   printf ':consult kb.pl\n?- p(X).\n:halt\n' | ./clare_shell
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "support/logging.hh"
#include "term/term_writer.hh"

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

int
main()
{
    using namespace clare;

    kb::KbConfig config;
    config.largeThreshold = 64;
    kb::KnowledgeBase base(config);
    kb::Solver solver(base);
    kb::SolveStats last_stats;

    std::printf("CLARE shell — type ':halt' to leave, '?- goal.' to "
                "query.\n");
    std::string line;
    while (true) {
        std::printf("clare> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        std::string input = trim(line);
        if (input.empty())
            continue;

        try {
            if (input == ":halt" || input == "halt.") {
                break;
            } else if (input.rfind(":consult ", 0) == 0) {
                std::string path = trim(input.substr(9));
                std::ifstream in(path);
                if (!in) {
                    std::printf("cannot open '%s'\n", path.c_str());
                    continue;
                }
                std::stringstream buffer;
                buffer << in.rdbuf();
                base.consult(buffer.str());
                std::printf("consulted '%s' (%zu clauses total)\n",
                            path.c_str(), base.clauseCount());
            } else if (input.rfind(":assert ", 0) == 0) {
                base.consult(input.substr(8));
                std::printf("ok (%zu clauses)\n", base.clauseCount());
            } else if (input == ":compile") {
                base.compile();
                std::size_t large = 0;
                for (const auto &pred : base.program().predicates())
                    large += base.isLarge(pred) ? 1 : 0;
                std::printf("compiled: %zu predicate(s) disk-resident "
                            "behind CLARE\n", large);
            } else if (input == ":listing") {
                term::TermWriter writer(base.symbols());
                for (std::size_t i = 0; i < base.clauseCount(); ++i)
                    std::printf("%s\n",
                                writer.writeClause(
                                    base.program().clause(i)).c_str());
            } else if (input == ":stats") {
                std::printf("last query: %llu steps, %llu CLARE "
                            "retrievals, %llu candidates, %llu false "
                            "drops, retrieval time %.2f ms\n",
                            static_cast<unsigned long long>(
                                last_stats.steps),
                            static_cast<unsigned long long>(
                                last_stats.retrievals),
                            static_cast<unsigned long long>(
                                last_stats.candidatesRetrieved),
                            static_cast<unsigned long long>(
                                last_stats.retrievalFalseDrops),
                            static_cast<double>(
                                last_stats.retrievalTime) /
                                kMillisecond);
            } else {
                // A query (with or without the "?-" prefix).
                kb::SolveOptions options;
                options.maxSolutions = 10;
                auto solutions = solver.solve(input, options);
                last_stats = solver.stats();
                const char *stop = last_stats.stopReason();
                if (solutions.empty()) {
                    if (stop == nullptr)
                        std::printf("no.\n");
                } else {
                    for (const auto &s : solutions) {
                        if (s.bindings.empty()) {
                            std::printf("yes.\n");
                            break;
                        }
                        std::string sep;
                        for (const auto &kv : s.bindings) {
                            std::printf("%s%s = %s", sep.c_str(),
                                        kv.first.c_str(),
                                        kv.second.c_str());
                            sep = ", ";
                        }
                        std::printf("\n");
                    }
                    if (solutions.size() >= options.maxSolutions)
                        std::printf("... (stopped after %llu)\n",
                                    static_cast<unsigned long long>(
                                        options.maxSolutions));
                }
                // A proof cut short is not a failed one: say which
                // limit stopped it, after the solutions it found.
                if (stop != nullptr)
                    std::printf("stopped: the %s ran out after %llu "
                                "steps.\n", stop,
                                static_cast<unsigned long long>(
                                    last_stats.steps));
            }
        } catch (const FatalError &e) {
            std::printf("error: %s\n", e.what());
        }
    }
    std::printf("bye.\n");
    return 0;
}
