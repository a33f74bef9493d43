/**
 * @file
 * The four workloads and the pieces they share.  Why each workload
 * exists, its sizes and its loop type are recorded in BENCHMARK.json
 * and perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>

#include "bench.hh"
#include "term/clause.hh"
#include "term/term.hh"
#include "workload/kb_generator.hh"

namespace perfbench {

Result runKeyedCold(const Args &args);
Result runWireZipf(const Args &args);
Result runIngestMix(const Args &args);
Result runGraphSolve(const Args &args);

/**
 * The net and router per-layer metrics (and loadgen.lag_p99_us) of a
 * traced wire_zipf run of @p seconds, folded into @p result: wire_zipf
 * is not in BENCHMARK.json (see README.md), so keyed_cold's traced run
 * measures those layers through it.
 */
void traceWireLayers(const Args &args, double seconds, Result &result);

/**
 * Set-up repetitions per run, setup_s being their median: at least
 * kSetupReps, and more (up to kSetupMaxReps) until they add up to
 * kSetupMinSeconds, so a short set-up is sampled often enough.
 */
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupMaxReps = 15;
constexpr double kSetupMinSeconds = 1.5;
/** Operations run after set-up and before timing (dropped). */
constexpr std::uint64_t kWarmupOps = 200;
/** Operations whose modeled ticks fold into the checksum. */
constexpr std::uint64_t kChecksumOps = 64;
/** Timed operations at least, whatever --seconds says. */
constexpr std::uint64_t kMinSamples = 1000;

/**
 * The reference KB: 4 predicates of arity-2 facts over a 2000-atom
 * vocabulary, @p facts per predicate, generated from @p seed.
 */
workload::KbSpec referenceKb(std::uint32_t facts, std::uint64_t seed);

/**
 * Run @p build repeatedly (see kSetupReps) and return the median wall
 * time in seconds; the last build's state stays with the caller.
 */
double timedSetup(const std::function<void()> &build);

/**
 * A keyed goal over stored head @p ordinal of @p program: the head
 * with its second argument replaced by a fresh variable, so auto mode
 * picks the FS1 path.
 */
term::TermRef keyedGoal(term::SymbolTable &symbols,
                        const term::Program &program, std::size_t ordinal,
                        term::TermArena &arena);

/** Record the run-wide facts every workload prints. */
void noteRun(Result &result, const Args &args, std::uint64_t checksum,
             std::size_t samples, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
