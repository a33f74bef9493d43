/**
 * @file
 * The Clause Retrieval Server (CRS): the software module linking CLARE
 * with the PDBM Prolog system (section 2.2).
 *
 * For each retrieval the CRS runs one of the four search modes —
 * software-only, FS1-only, FS2-only, or the two-stage FS1+FS2 filter —
 * and hands the resulting candidate set to host-side full unification.
 * Mode selection follows the paper's criteria: the nature of the query
 * (e.g. whether it contains cross-bound/shared variables or variable-
 * bearing structures that the codeword index cannot see) and of the
 * knowledge base (rule-intensive predicates defeat the index because
 * variable arguments are masked).
 *
 * Host software costs are modeled with a simple per-clause/per-
 * operation cost model representative of the M68020-class host;
 * retrieval *correctness* (which clauses truly unify) is computed with
 * the real unifier so that false-drop accounting is exact.
 *
 * The front door is the unified request/response API (crs/api.hh):
 * serve() retrieves one RetrievalRequest, serveBatch() a batch of
 * them, and both run every request through one sequential per-request
 * path that fills the response's StageBreakdown.  The same pair is the
 * *only* entry: networked callers reach it through
 * net::NetServer/NetClient, whose responses are bit-identical to a
 * local call.
 *
 * The paper's FS1/FS2 overlap is a property of the hardware, and the
 * Tick model accounts for it analytically; the server runs each
 * request on the calling thread.  Concurrency lives one level up:
 * any number of threads may call serve() on one server at once (the
 * goal cache, the MVCC store and the metrics are thread-safe).
 *
 * Every server owns an obs::Tracer (per-request opt-in spans) and an
 * obs::MetricsRegistry (always-on counters/histograms) wired through
 * all pipeline layers; export them with obs::exportJson().
 */

#ifndef CLARE_CRS_SERVER_HH
#define CLARE_CRS_SERVER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crs/api.hh"
#include "crs/goal_cache.hh"
#include "crs/search_mode.hh"
#include "crs/store.hh"
#include "fs1/fs1_engine.hh"
#include "fs2/fs2_engine.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"
#include "unify/tue_op.hh"

namespace clare::crs {

/**
 * Host (M68020-class) software cost model.  A mid-80s workstation
 * Prolog ran on the order of 10-20 KLIPS, i.e. 50-100 us per
 * inference; a software partial-match visit is cheaper than a full
 * resolution step but of the same order.
 */
struct HostCostModel
{
    /** Fixed software cost to visit one clause record. */
    Tick perClause = 40 * kMicrosecond;
    /** Cost per software term-comparison operation. */
    Tick perOp = 5 * kMicrosecond;
    /** Full unification cost per candidate clause. */
    Tick perCandidateUnify = 100 * kMicrosecond;
};

/**
 * Configuration of the server's one cache, the L3 goal-result cache
 * (crs/goal_cache.hh).  A miss runs exactly the cache-off pipeline.
 *
 * Defaults to *disabled*, so a default server is bit-identical to the
 * pre-cache pipeline.  When a fault injector is armed the server
 * never caches regardless of this config: a fault-touched response
 * must not be replayed.
 */
struct CacheConfig
{
    /** Master switch for the goal cache. */
    bool enabled = false;

    /** Goal-result entries. */
    std::uint32_t goalCapacity = 256;
    /** Modeled cost of a hit (hash + lookup + payload copy). */
    Tick goalHitCost = 2 * kMicrosecond;
};

/** CRS configuration. */
struct CrsConfig
{
    HostCostModel host;
    fs1::Fs1Config fs1;
    fs2::Fs2Config fs2;
    CacheConfig cache;

    /**
     * Bound on modeled re-reads of a chunk after transient disk
     * errors.  Each retry re-positions the head, so it costs a full
     * access time that shows honestly in the stage breakdown.
     */
    storage::RetryPolicy retry{};

    /**
     * Optional deterministic fault oracle (not owned; null = ideal
     * disks).  When set, every index read is verified against the
     * store's page checksums — corruption degrades the query to a
     * full scan — and data reads model bounded retries and page
     * re-reads.  In -DCLARE_FAULT_INJECT builds a null pointer falls
     * back to support::envFaultInjector().
     */
    const support::FaultInjector *faults = nullptr;

    /**
     * Check the host, FS1, FS2, cache and retry settings as one unit,
     * throwing ConfigError naming the offending field on the first
     * incoherent value (e.g. a non-positive FS1 scan rate).  The
     * server constructor calls this; call it directly to vet a config
     * before building stores.
     */
    void validate() const;
};

/**
 * Outcome of the FS1 stage, including the modeled fault effects of
 * the index read.  A scan that is not healthy() carries no FS1 result
 * — the server degrades the query to a full FS2 scan instead of
 * matching garbage codewords.
 */
struct IndexScan
{
    fs1::Fs1Result fs1;
    /** Re-seek and delay ticks injected faults added to the read. */
    Tick faultTicks = 0;
    /** Index pages whose delivered copy failed its CRC check. */
    std::uint32_t corruptPages = 0;
    /** A chunk failed every bounded read attempt. */
    bool unreadable = false;

    bool healthy() const { return corruptPages == 0 && !unreadable; }
};

/** Characteristics of a query goal that drive mode selection. */
struct QueryProfile
{
    std::uint32_t arity = 0;
    std::uint32_t groundArgs = 0;
    std::uint32_t variableArgs = 0;
    bool hasSharedVars = false;          ///< a variable occurs twice
    bool hasVarBearingStructures = false; ///< complex arg containing vars
};

/**
 * The retrieval server.
 *
 * Implements CacheInvalidationSink so a crs::LiveStore with the server
 * attached (LiveStore::attachSink) flushes cached results for every
 * predicate a commit wrote.
 */
class ClauseRetrievalServer : public CacheInvalidationSink
{
  public:
    /**
     * @param symbols shared symbol table (names in error messages)
     * @throws ConfigError when @p config is incoherent
     */
    ClauseRetrievalServer(const term::SymbolTable &symbols,
                          const PredicateStore &store,
                          CrsConfig config = {});

    /**
     * The unified front door: retrieve one request.  The response's
     * breakdown satisfies breakdown.serviceTime() == elapsed.
     *
     * @throws PredicateNotStoredError when the goal's predicate is
     *         not stored (at the request's snapshot, when pinned)
     */
    RetrievalResponse serve(const RetrievalRequest &request);

    /**
     * Batched front door: pin and validate every request first, then
     * serve them in order through the same per-request path as
     * serve().  Each response is identical to what a serve() loop over
     * the batch on the same server would return, cache effects
     * included.
     *
     * Batch split contract (what the sharded scatter/gather relies
     * on): all retrieval state — goal-cache entries and MVCC version
     * pins — is keyed per predicate, so any partition of a batch into
     * sub-batches that preserves the relative order of same-predicate
     * requests yields per-item responses identical to serving the
     * whole batch.
     *
     * @throws PredicateNotStoredError when any item's predicate is not
     *         stored; nothing in the batch has been served then
     */
    std::vector<RetrievalResponse>
    serveBatch(const std::vector<RetrievalRequest> &batch);

    /**
     * The mode-selection heuristic (exposed for tests/benches),
     * evaluated against the head predicate version.
     */
    SearchMode selectMode(const term::TermArena &q_arena,
                          term::TermRef goal) const;

    /** Analyze a goal's filter-relevant characteristics. */
    static QueryProfile profileQuery(const term::TermArena &q_arena,
                                     term::TermRef goal);

    const CrsConfig &config() const { return config_; }

    /** Spans recorded for requests with TraceOptions::enabled. */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /** Always-on pipeline metrics (counters, histograms). */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Drop the goal-cache entries of @p pred and refresh the store
     * gauges.  Called by LiveStore after publish, for every predicate
     * the commit touched.  Safe under concurrent serves.
     */
    void invalidatePredicate(const term::PredicateId &pred) override;

    /** Entries currently resident in the L3 goal cache (tests). */
    std::size_t goalCacheSize() const;

  private:
    /**
     * Set the store.versions.live and store.bytes.retained gauges from
     * the store (every held MVCC version, shared storage counted once).
     */
    void refreshStoreGauges();

    const term::SymbolTable &symbols_;
    const PredicateStore &store_;
    CrsConfig config_;
    /** Persistent FS1 engine, shared across retrievals and threads. */
    fs1::Fs1Engine fs1_;

    obs::Tracer tracer_;
    obs::MetricsRegistry metrics_;

    /**
     * Hot-path instruments, cached as pointers so steady-state
     * requests hit the registry without rebuilding name/description
     * strings (the zero-copy serving path counts its allocations —
     * a string temporary per counter would dominate a warm hit).
     * Each slot fills lazily on its first use, so registration order
     * — and thus a metrics dump — is identical to uncached lookups:
     * per-mode counters still appear only once a request actually
     * exercises them.  Slots are atomics
     * with release-store/acquire-load publication: concurrent serve()
     * calls may race the first fill, the registry hands every racer
     * the same instrument (so whichever store lands last wrote the
     * same value), and the acquire edge makes the instrument's
     * construction visible to the thread that merely loaded the
     * pointer.
     */
    struct HotMetrics
    {
        std::atomic<obs::Counter *> queries{nullptr};
        std::atomic<obs::Counter *> candidates{nullptr};
        std::atomic<obs::Counter *> answers{nullptr};
        std::atomic<obs::Counter *> falseDrops{nullptr};
        std::atomic<obs::Counter *> cacheHits{nullptr};
        std::atomic<obs::Counter *> cacheMisses{nullptr};
        std::array<std::atomic<obs::Counter *>, kSearchModeCount> mode{};
        std::atomic<obs::Histogram *> elapsed{nullptr};
        std::atomic<obs::Gauge *> heapAllocs{nullptr};
    };
    HotMetrics hot_;

    /**
     * L3: canonical goal + mode + generation → full response payload.
     * Null when cache.enabled is false or a fault oracle is armed
     * (fault-touched results must never be replayed).  Internally
     * mutex-guarded; the server adds no locking of its own.
     */
    std::unique_ptr<GoalCache> goalCache_;

    /** The per-request observer: tracer only when the request asks. */
    obs::Observer observer(const TraceOptions &trace)
    {
        return obs::Observer{trace.enabled ? &tracer_ : nullptr,
                             &metrics_};
    }

    /**
     * Pin the MVCC version @p request reads (the head, or the newest
     * at its snapshot).  The one place a request is validated against
     * the store.
     * @throws PredicateNotStoredError when there is no such version
     */
    std::shared_ptr<const StoredPredicate>
    pin(const RetrievalRequest &request) const;

    /**
     * The per-request path behind serve() and serveBatch(): goal-cache
     * consult, FS1 scan, filter, host unification and accounting for
     * one request against its already pinned version.  The root span
     * nests under the calling thread's current span (a batch's
     * "crs.batch" span, or none).
     */
    RetrievalResponse serveOne(const RetrievalRequest &request,
                               std::shared_ptr<const StoredPredicate>
                                   pinned);

    /**
     * Mode selection against an already-resolved predicate version's
     * rule fraction — requests pin the MVCC version first and select
     * against that same version, never the (possibly newer) head.
     */
    static SearchMode selectModeFor(const term::TermArena &q_arena,
                                    term::TermRef goal,
                                    double rule_fraction);

    /** Does this mode run the FS1 index scan? */
    static bool usesFs1(SearchMode mode)
    {
        return mode == SearchMode::Fs1Only ||
            mode == SearchMode::TwoStage;
    }

    /**
     * FS1 stage: verify the delivered index pages against the store's
     * checksums (when a fault oracle is configured), then scan the
     * predicate's index.  Thread-safe; touches no per-query state.
     */
    IndexScan scanIndex(const StoredPredicate &stored,
                        const term::TermArena &q_arena,
                        term::TermRef goal,
                        const obs::Observer &obs,
                        obs::SpanId parent) const;

    // ----- Goal-cache plumbing.  Every consult and fill runs on the
    // calling thread, in request (or batch) order.

    /**
     * Does the goal cache participate in this request?  Snapshot-
     * pinned requests never cache: their answers belong to one
     * historical generation.
     */
    bool cachingActive(const RetrievalRequest &request) const
    {
        return goalCache_ != nullptr && !request.bypassCache &&
            !request.snapshot;
    }

    /** L3 key: canonical goal key + mode + MVCC generation. */
    static std::string goalKey(const term::TermArena &q_arena,
                               term::TermRef goal, SearchMode mode,
                               std::uint64_t generation);

    /**
     * Build a response from an L3 hit.  The entry is stored already
     * hit-shaped (payload verbatim, breakdown reduced to the modeled
     * goal-hit cost), so this is one copy of the shared payload plus
     * the pre-encoded wire blob handle — nothing was copied under the
     * cache mutex.
     */
    void serveGoalHit(const GoalCache::Entry &cached,
                      RetrievalResponse &response);

    /** Admit an eligible (clean, non-overflowed) response. */
    void maybeCacheGoal(const std::string &goal_key,
                        const term::PredicateId &pred,
                        const RetrievalResponse &response);

    /**
     * Everything after the FS1 stage: degradation of unhealthy index
     * scans, FS2 / software filtering, fault-recovery accounting,
     * host unification, and the single authoritative stage
     * accounting.
     */
    void finishRetrieval(const StoredPredicate &stored,
                         const RetrievalRequest &request,
                         IndexScan scan, const obs::Observer &obs,
                         obs::SpanId root, RetrievalResponse &response);

    /**
     * Host full unification of the candidates against the version's
     * decoded heads; fills answers + time.
     */
    void hostUnify(const StoredPredicate &stored,
                   const term::TermArena &q_arena, term::TermRef goal,
                   RetrievalResponse &response) const;

    /** Per-query metrics + root-span finalization (hits and misses). */
    void accountQuery(RetrievalResponse &response, obs::ScopedSpan &root);
};

} // namespace clare::crs

#endif // CLARE_CRS_SERVER_HH
