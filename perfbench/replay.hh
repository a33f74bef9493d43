/**
 * @file
 * The traced run's view of one retrieval: the steps of
 * ClauseRetrievalServer::serve() re-issued from the benchmark through
 * each layer's public functions, with a span around every call —
 * signature encoding (scw), the index scan (fs1), the partial-match
 * filter (fs2, or the software scan), and per candidate the clause
 * fetch (storage), the parse (term) and full unification (unify).
 * The replay must produce the candidates and answers the server does;
 * callers compare the two on every operation.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "crs/server.hh"
#include "fs1/fs1_engine.hh"
#include "support/obs.hh"

namespace perfbench {

/** Work a replay counted, summed over its operations. */
struct RetrievalCounts
{
    std::uint64_t ops = 0;
    std::uint64_t candidates = 0;
    std::uint64_t answers = 0;
    std::uint64_t fs1Entries = 0;
    std::uint64_t fs1Survivors = 0;
    std::uint64_t fs2Clauses = 0;
    std::uint64_t parses = 0;
};

struct ReplayOutcome
{
    crs::SearchMode mode = crs::SearchMode::SoftwareOnly;
    std::vector<std::uint32_t> candidates;
    std::vector<std::uint32_t> answers;
};

class RetrievalReplay
{
  public:
    /** @p server selects the mode; @p store supplies the versions. */
    RetrievalReplay(term::SymbolTable &symbols,
                    const crs::PredicateStore &store,
                    const crs::ClauseRetrievalServer &server);

    /** Replay one retrieval of @p goal, recording spans into @p tracer. */
    ReplayOutcome run(Tracer &tracer, const term::TermArena &arena,
                      term::TermRef goal);

    const RetrievalCounts &counts() const { return counts_; }

  private:
    term::SymbolTable &symbols_;
    const crs::PredicateStore &store_;
    const crs::ClauseRetrievalServer &server_;
    fs1::Fs1Engine fs1_;
    RetrievalCounts counts_;
};

/** Does @p replay agree with the server's @p served response? */
bool sameRetrieval(const ReplayOutcome &replay,
                   const crs::RetrievalResponse &served);

/**
 * Set the per-layer metrics of the retrieval layers from a replay:
 * mean call times of the scw/fs1/fs2/storage/term/unify spans and the
 * per-operation counts.
 */
void setRetrievalLayerMetrics(Result &result, const Tracer &tracer,
                              const RetrievalCounts &counts);

/** Mode and L3-cache counters read from a server's MetricsRegistry. */
struct ServerCounts
{
    double queries = 0;
    double mode[crs::kSearchModeCount] = {};
    double cacheHits = 0;
    double cacheMisses = 0;

    void add(obs::MetricsRegistry &metrics);
    void subtract(const ServerCounts &earlier);
    /** Set crs.mode_share.* and crs.cache.hit_ratio. */
    void setMetrics(Result &result) const;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
