#include "workloads.hh"

#include <cstdio>
#include <vector>

namespace perfbench {

workload::KbSpec
referenceKb(std::uint32_t facts, std::uint64_t seed)
{
    workload::KbSpec spec;
    spec.predicates = 4;
    spec.clausesPerPredicate = facts;
    spec.arityMin = 2;
    spec.arityMax = 2;
    spec.atomVocabulary = 2000;
    spec.seed = seed;
    return spec;
}

double
timedSetup(const std::function<void()> &build)
{
    std::vector<double> seconds;
    double total = 0.0;
    while (seconds.size() < kSetupReps ||
           (total < kSetupMinSeconds && seconds.size() < kSetupMaxReps)) {
        Clock::time_point start = Clock::now();
        build();
        seconds.push_back(secondsSince(start));
        total += seconds.back();
    }
    return median(seconds);
}

term::TermRef
keyedGoal(term::SymbolTable &symbols, const term::Program &program,
          std::size_t ordinal, term::TermArena &arena)
{
    const term::Clause &clause = program.clause(ordinal);
    term::TermRef head = arena.import(clause.arena(), clause.head(), 0);
    term::VarId var = arena.varCeiling();
    term::TermRef args[] = {
        arena.arg(head, 0),
        arena.makeVar(var, symbols.intern("B")),
    };
    return arena.makeStruct(arena.functor(head), args);
}

void
noteRun(Result &result, const Args &args, std::uint64_t checksum,
        std::size_t samples, unsigned threads)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(checksum));
    result.note("workload", args.workload);
    result.note("seed", static_cast<double>(args.seed));
    result.note("nproc", static_cast<double>(nproc()));
    result.note("threads", static_cast<double>(threads));
    result.note("samples", static_cast<double>(samples));
    result.note("modeled_ticks", hex);
    result.note("error_rate",
                result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted));
}

} // namespace perfbench
