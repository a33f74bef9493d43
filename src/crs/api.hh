/**
 * @file
 * The unified request/response API of the Clause Retrieval Server.
 *
 * One RetrievalRequest (goal, optional mode override, trace options)
 * enters serve()/serveBatch(); one RetrievalResponse (candidates,
 * answers, a StageBreakdown of per-stage simulated time, and a trace
 * handle) comes back.  This pair is the single authoritative code
 * path for per-stage accounting — local and networked (net/) callers
 * alike go through it, so responses agree bit-for-bit everywhere.
 */

#ifndef CLARE_CRS_API_HH
#define CLARE_CRS_API_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "crs/search_mode.hh"
#include "support/errors.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"
#include "term/term.hh"
#include "unify/tue_op.hh"

namespace clare::crs {

struct StoredPredicate;

/**
 * A configuration field rejected by CrsConfig::validate().  Carries
 * the dotted field path so callers can report (or test) exactly which
 * knob is incoherent instead of pattern-matching a message.  Rooted at
 * clare::Error like the I/O taxonomy, so one catch covers every typed
 * failure the server can raise.
 */
class ConfigError : public Error
{
  public:
    ConfigError(std::string field, const std::string &why)
        : Error(field + ": " + why),
          field_(std::move(field))
    {
    }

    /** Dotted path of the offending field, e.g. "fs1.scanRate". */
    const std::string &field() const { return field_; }

  private:
    std::string field_;
};

/**
 * A request named a predicate the store does not hold — or, for a
 * snapshot-pinned request, one that had no version at the pinned
 * generation.  Raised by serve()/serveBatch() before any work is done
 * (a batch fails as one unit, before its first item is served).
 */
class PredicateNotStoredError : public Error
{
  public:
    /** @param predicate printable "name/arity" of the goal */
    PredicateNotStoredError(std::string predicate,
                            std::optional<std::uint64_t> snapshot)
        : Error("predicate " + predicate + " is not stored" +
                (snapshot ? " at snapshot " + std::to_string(*snapshot)
                          : std::string())),
          predicate_(std::move(predicate)), snapshot_(snapshot)
    {
    }

    /** The goal's predicate as "name/arity". */
    const std::string &predicate() const { return predicate_; }
    /** The requested snapshot generation; empty for a head read. */
    std::optional<std::uint64_t> snapshot() const { return snapshot_; }

  private:
    std::string predicate_;
    std::optional<std::uint64_t> snapshot_;
};

/** Per-request tracing knobs. */
struct TraceOptions
{
    /** Record spans for this request into the server's tracer. */
    bool enabled = false;

    /**
     * Cap on fine-grained detail spans (e.g. FS2 double-buffer fills)
     * recorded per stage; coarse stage spans are never capped.
     */
    std::uint32_t maxDetailSpans = 32;
};

/** One retrieval, as presented to the unified front door. */
struct RetrievalRequest
{
    /** Arena holding the goal (not owned; must outlive the call). */
    const term::TermArena *arena = nullptr;
    term::TermRef goal{};
    /** Explicit search mode; empty lets the CRS choose. */
    std::optional<SearchMode> mode;
    TraceOptions trace{};

    /**
     * Serve this request from the full pipeline even when the server's
     * goal cache is enabled: neither consulted nor filled.  A bypassed
     * request on a warm server is bit-identical to the same request on
     * a server with the cache disabled.
     */
    bool bypassCache = false;

    /**
     * Pin this request to an MVCC generation: the retrieval sees the
     * newest predicate version published at or before the pinned
     * generation, regardless of concurrent or later commits.  Empty
     * serves the head (newest) generation.  Snapshot-pinned requests
     * bypass the goal cache (whose entries are keyed to the live store)
     * rather than risk serving a different generation's answers.
     */
    std::optional<std::uint64_t> snapshot;
};

/**
 * Per-stage simulated time of one retrieval.  This is the single
 * shared shape for stage accounting: RetrievalResponse carries it,
 * the metrics exporter serializes it, and the bench harnesses print
 * it — no call site sums stage fields by hand.
 */
struct StageBreakdown
{
    /**
     * Modeled goal-cache lookup cost: CacheConfig::goalHitCost on a
     * hit (the only nonzero stage then), 0 otherwise — a miss is
     * bit-identical to the same request on a cache-off server.
     */
    Tick cacheTime = 0;
    Tick indexTime = 0;     ///< FS1 index scan
    Tick filterTime = 0;    ///< FS2 / software scan / candidate fetch
    Tick hostUnifyTime = 0; ///< modeled full-unification cost

    /** Sum of the four stages — the query's latency. */
    Tick
    serviceTime() const
    {
        return cacheTime + indexTime + filterTime + hostUnifyTime;
    }
};

/** JSON shape shared by the exporter and the bench harnesses. */
json::Value toJson(const StageBreakdown &breakdown);

/** Outcome of one retrieval. */
struct RetrievalResponse
{
    SearchMode mode = SearchMode::SoftwareOnly;

    /** Ordinals handed to full unification, in clause order. */
    std::vector<std::uint32_t> candidates;
    /** Ordinals that truly unify (the answer set), in clause order. */
    std::vector<std::uint32_t> answers;

    std::uint64_t indexEntriesScanned = 0;
    std::uint64_t fs1Hits = 0;
    std::uint64_t clausesExamined = 0;  ///< by FS2 or software matching
    unify::TueOpCounts filterOps{};

    /** Per-stage simulated time; breakdown.serviceTime() == elapsed. */
    StageBreakdown breakdown;
    /** Total retrieval latency. */
    Tick elapsed = 0;

    /**
     * Root span of this retrieval in the server's tracer, or 0 when
     * tracing was not requested.
     */
    obs::SpanId traceSpan = 0;

    /**
     * The predicate's index was corrupt or unreadable, so the
     * retrieval was downgraded to a full FS2 scan.  The answer set is
     * unaffected — host unification removes the extra candidates —
     * but candidates and timing reflect the full scan.
     */
    bool degraded = false;
    /** Index pages that failed their CRC check (when degraded). */
    std::uint32_t corruptIndexPages = 0;

    /**
     * FS2's Result Memory ran out of 512-byte slots mid-search.  The
     * candidate set is still complete; the satisfiers past capacity
     * were requeued through the host's ordinary candidate fetch
     * (already billed per candidate by hostUnify) instead of the real
     * hardware's silent address-counter wraparound over slot 0.
     */
    bool resultOverflow = false;
    /** Satisfiers re-fetched through the overflow requeue pass. */
    std::uint32_t satisfiersRequeued = 0;

    /**
     * Pre-encoded wire payload of this exact response, shared with the
     * goal cache (response_blob.hh).  Set only on an L3 goal-cache
     * hit; a wire server that sees it can frame the blob
     * verbatim — patching only the request-id field — instead of
     * re-encoding field by field.  Purely an optimization handle:
     * never compared by responsesIdentical, never sent as a field, and
     * decoding a response always leaves it empty.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> replayBlob;

    /**
     * The MVCC predicate version this retrieval pinned: candidates and
     * answers are ordinals of this version, so a caller resolving them
     * to clauses (kb::KnowledgeBase::clausesFor) reads this version,
     * never the possibly newer head.  Like replayBlob it is a local
     * handle — never compared by responsesIdentical, never sent on the
     * wire, never cached.
     */
    std::shared_ptr<const StoredPredicate> version;

    /**
     * Candidates that failed full unification.  A correct filter never
     * produces answers outside the candidate set, so the difference is
     * clamped at zero (the unsigned subtraction used to underflow to
     * ~2^64 on a false negative); debug builds assert instead so a
     * filter-correctness regression is loud rather than absurd.
     */
    std::uint64_t
    falseDrops() const
    {
#ifndef NDEBUG
        clare_assert(answers.size() <= candidates.size(),
                     "filter false negative: %zu answers from %zu "
                     "candidates", answers.size(), candidates.size());
#endif
        return candidates.size() > answers.size()
            ? candidates.size() - answers.size()
            : 0;
    }

    /**
     * Answers the filter missed (candidate set not a superset of the
     * answer set).  Always zero for a correct filter; exposed so
     * oracle-style tests can report the violation instead of watching
     * falseDrops() underflow.
     */
    std::uint64_t
    falseNegatives() const
    {
        return answers.size() > candidates.size()
            ? answers.size() - candidates.size()
            : 0;
    }

    double
    falseDropRate() const
    {
        return candidates.empty()
            ? 0.0
            : static_cast<double>(falseDrops()) /
              static_cast<double>(candidates.size());
    }
};

} // namespace clare::crs

#endif // CLARE_CRS_API_HH
