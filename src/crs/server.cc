#include "crs/server.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "support/alloc_counter.hh"
#include "support/crc32.hh"
#include "support/logging.hh"
#include "term/canonical.hh"
#include "unify/oracle.hh"
#include "unify/pif_matcher.hh"

namespace clare::crs {

using term::TermArena;
using term::TermKind;
using term::TermRef;

namespace {

/** Bucket bounds shared by the server's latency histograms (us). */
std::vector<double>
latencyBoundsUs()
{
    return obs::Histogram::exponential(1.0, 10.0, 9);
}

constexpr double kTicksPerUs = static_cast<double>(kMicrosecond);

} // namespace

ClauseRetrievalServer::ClauseRetrievalServer(const term::SymbolTable &symbols,
                                             const PredicateStore &store,
                                             CrsConfig config)
    : symbols_(symbols), store_(store), config_(config),
      fs1_(store.generator(), config.fs1)
{
    config_.validate();
#ifdef CLARE_FAULT_INJECT
    // Opt-in builds let the environment drive the oracle so any
    // binary (benches, fuzz sweeps) can replay a fault seed without a
    // code change; release builds carry no hook.
    if (config_.faults == nullptr)
        config_.faults = support::envFaultInjector();
#endif
    if (config_.faults != nullptr &&
        !config_.faults->config().anyFaults())
        config_.faults = nullptr;
    // The goal cache exists only when asked for AND no fault oracle
    // is armed: a response whose bytes were exposed to injected faults
    // (or whose index read might degrade) must never be replayed.
    if (config_.cache.enabled && config_.faults == nullptr)
        goalCache_ = std::make_unique<GoalCache>(
            config_.cache.goalCapacity);
    refreshStoreGauges();
}

void
ClauseRetrievalServer::refreshStoreGauges()
{
    metrics_.gauge("store.versions.live",
                   "MVCC versions held, generation 0 included")
        .set(static_cast<double>(store_.liveVersions()));
    metrics_.gauge("store.bytes.retained",
                   "heap bytes the held versions keep alive "
                   "(shared storage counted once)")
        .set(static_cast<double>(store_.retainedBytes()));
}

namespace {

void
collectVars(const TermArena &arena, TermRef t,
            std::set<term::VarId> &seen, bool &shared)
{
    switch (arena.kind(t)) {
      case TermKind::Var:
        if (!arena.isAnonymous(t) && !seen.insert(arena.varId(t)).second)
            shared = true;
        return;
      case TermKind::Struct:
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            collectVars(arena, arena.arg(t, i), seen, shared);
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != term::kNoTerm) {
            collectVars(arena, arena.listTail(t), seen, shared);
        }
        return;
      default:
        return;
    }
}

bool
containsVar(const TermArena &arena, TermRef t)
{
    switch (arena.kind(t)) {
      case TermKind::Var:
        return true;
      case TermKind::Struct:
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (containsVar(arena, arena.arg(t, i)))
                return true;
        if (arena.kind(t) == TermKind::List &&
            arena.listTail(t) != term::kNoTerm) {
            return containsVar(arena, arena.listTail(t));
        }
        return false;
      default:
        return false;
    }
}

} // namespace

QueryProfile
ClauseRetrievalServer::profileQuery(const TermArena &q_arena, TermRef goal)
{
    QueryProfile profile;
    if (q_arena.kind(goal) != TermKind::Struct)
        return profile;
    profile.arity = q_arena.arity(goal);

    std::set<term::VarId> seen;
    for (std::uint32_t i = 0; i < profile.arity; ++i) {
        TermRef arg = q_arena.arg(goal, i);
        TermKind k = q_arena.kind(arg);
        if (k == TermKind::Var) {
            ++profile.variableArgs;
        } else if (!containsVar(q_arena, arg)) {
            ++profile.groundArgs;
        } else {
            profile.hasVarBearingStructures = true;
        }
        collectVars(q_arena, arg, seen, profile.hasSharedVars);
    }
    return profile;
}

SearchMode
ClauseRetrievalServer::selectMode(const TermArena &q_arena,
                                  TermRef goal) const
{
    term::PredicateId pred = term::predicateOf(q_arena, goal);
    std::shared_ptr<const StoredPredicate> head =
        store_.predicateVersion(pred);
    return selectModeFor(q_arena, goal,
                         head ? head->ruleFraction : 0.0);
}

SearchMode
ClauseRetrievalServer::selectModeFor(const TermArena &q_arena,
                                     TermRef goal,
                                     double rule_fraction)
{
    QueryProfile p = profileQuery(q_arena, goal);

    // Nothing for a filter to discriminate on: every clause of the
    // predicate is a candidate whatever we do.
    if (p.arity == 0 || p.variableArgs == p.arity) {
        if (p.hasSharedVars)
            return SearchMode::Fs2Only;  // e.g. married_couple(S,S)
        return SearchMode::SoftwareOnly;
    }

    // Shared variables and variable-bearing structures are invisible
    // to the codeword index; partial test unification is required to
    // keep the candidate set manageable.
    if (p.hasSharedVars || p.hasVarBearingStructures) {
        return p.groundArgs > 0 ? SearchMode::TwoStage
                                : SearchMode::Fs2Only;
    }

    // Ground query against a rule-intensive predicate: variable head
    // arguments set mask bits, so the index passes most clauses and
    // the second stage pays for itself.
    if (rule_fraction > 0.5)
        return SearchMode::TwoStage;

    return SearchMode::Fs1Only;
}

IndexScan
ClauseRetrievalServer::scanIndex(const StoredPredicate &stored,
                                 const TermArena &q_arena, TermRef goal,
                                 const obs::Observer &obs,
                                 obs::SpanId parent) const
{
    IndexScan scan;
    if (config_.faults != nullptr) {
        const support::FaultInjector &faults = *config_.faults;
        const std::span<const std::uint8_t> image = stored.index.image();
        const storage::DiskModel &disk = store_.indexDisk();
        const std::uint64_t base = stored.indexFileOffset;

        support::RangeFaults rf = faults.rangeFaults(
            "disk.index", base, image.size(),
            config_.retry.maxAttempts);
        scan.faultTicks = static_cast<Tick>(rf.retries) *
            disk.accessTime() + rf.delayTicks;
        if (rf.permanent) {
            scan.unreadable = true;
            return scan;
        }

        // Verify the delivered copy page by page against the CRCs
        // computed at finalize().  Only faulted pages are actually
        // copied; clean pages are checked in place, so the scan reads
        // the master image exactly when it is provably intact.
        constexpr std::uint32_t page_bytes =
            support::kChecksumPageBytes;
        std::vector<std::uint8_t> scratch;
        for (std::size_t p = 0; p < stored.indexPageCrcs.size(); ++p) {
            std::size_t off = p * static_cast<std::size_t>(page_bytes);
            std::size_t n = std::min<std::size_t>(page_bytes,
                                                  image.size() - off);
            const std::uint8_t *page = image.data() + off;
            std::uint64_t key = faults.chunkKey(base + off);
            if (faults.corruptChunk("disk.index", key)) {
                scratch.assign(page, page + n);
                faults.flipBit("disk.index", key, scratch.data(),
                               scratch.size());
                page = scratch.data();
            }
            if (support::crc32(page, n) != stored.indexPageCrcs[p])
                ++scan.corruptPages;
        }
        if (scan.corruptPages > 0)
            return scan;
    }

    scw::Signature query_sig = store_.generator().encode(q_arena, goal);
    scan.fs1 = fs1_.search(stored.index, stored.sliced.get(),
                           stored.deltaSliced.get(), stored.baseEntries,
                           query_sig, obs, parent);
    return scan;
}

// ---------------------------------------------------------------------
// Goal-cache plumbing.
// ---------------------------------------------------------------------

std::string
ClauseRetrievalServer::goalKey(const TermArena &q_arena, TermRef goal,
                               SearchMode mode,
                               std::uint64_t generation)
{
    // The resolved mode is part of the identity: the same goal served
    // in two modes produces different candidate sets and timings.  So
    // is the MVCC generation of the predicate version that answers it:
    // key and payload derive from the same resolved version, so a
    // commit racing with a fill can never park one generation's
    // answers under another generation's key.
    std::string key = term::canonicalKey(q_arena, goal);
    key.push_back('#');
    key.push_back(static_cast<char>('0' + static_cast<int>(mode)));
    if (generation != 0) {
        key.push_back('@');
        key += std::to_string(generation);
    }
    return key;
}

void
ClauseRetrievalServer::serveGoalHit(const GoalCache::Entry &cached,
                                    RetrievalResponse &response)
{
    // Payload verbatim — candidates, answers, and every filter
    // statistic are bit-identical to a recomputation — with the stage
    // breakdown already reduced to the modeled cache lookup when the
    // entry was admitted.  The blob handle lets the wire tier send
    // the cached encoding verbatim (id patched per request).
    response = cached.response;
    response.replayBlob = cached.blob;
    obs::Counter *hits = hot_.cacheHits.load(std::memory_order_acquire);
    if (hits == nullptr) {
        hits = &metrics_.counter("crs.cache.hits", "L3 goal-cache hits");
        hot_.cacheHits.store(hits, std::memory_order_release);
    }
    ++*hits;
}

void
ClauseRetrievalServer::maybeCacheGoal(const std::string &goal_key,
                                      const term::PredicateId &pred,
                                      const RetrievalResponse &response)
{
    // Degraded responses never exist here (caching requires no fault
    // oracle), but guard anyway; overflowed responses requeued
    // satisfiers through a host path whose cost depends on Result
    // Memory pressure at serve time, so they are not replayed either.
    if (response.degraded || response.resultOverflow)
        return;
    // Admit the *hit-shaped* response: payload verbatim, breakdown
    // reduced to the modeled goal-hit cost, no trace handle.  Shaping
    // at admission (the cold path) keeps every hit to one copy and
    // makes the entry's baked wire blob byte-identical to what a hit
    // returns.
    RetrievalResponse hit = response;
    hit.breakdown = StageBreakdown{};
    hit.breakdown.cacheTime = config_.cache.goalHitCost;
    hit.elapsed = hit.breakdown.serviceTime();
    hit.traceSpan = 0;
    hit.version.reset();
    if (goalCache_->put(goal_key, pred, std::move(hit)))
        ++metrics_.counter("crs.cache.evictions",
                           "L3 entries displaced by capacity");
}

void
ClauseRetrievalServer::invalidatePredicate(const term::PredicateId &pred)
{
    refreshStoreGauges();
    if (goalCache_ == nullptr)
        return;
    std::size_t removed = goalCache_->invalidatePredicate(pred);
    metrics_.counter("crs.cache.invalidations",
                     "L3 entries dropped by committed writes") +=
        removed;
}

std::size_t
ClauseRetrievalServer::goalCacheSize() const
{
    return goalCache_ == nullptr ? 0 : goalCache_->size();
}

void
ClauseRetrievalServer::hostUnify(const StoredPredicate &stored,
                                 const TermArena &q_arena, TermRef goal,
                                 RetrievalResponse &response) const
{
    // Candidates unify against the version's pre-decoded heads, with
    // one scratch arena and binding trail for the whole call — the
    // same verdicts as parsing each candidate's source text and
    // calling wouldUnify(), without the per-candidate parse.
    unify::HeadUnifier unifier(q_arena, goal);
    response.answers.reserve(response.candidates.size());
    for (std::uint32_t ordinal : response.candidates) {
        term::ClauseView clause = stored.decodedClause(ordinal);
        if (unifier.unifies(*clause.arena, clause.head))
            response.answers.push_back(ordinal);
    }
    response.breakdown.hostUnifyTime = config_.host.perCandidateUnify *
        response.candidates.size();
}

// ---------------------------------------------------------------------
// The unified front door.
// ---------------------------------------------------------------------

std::shared_ptr<const StoredPredicate>
ClauseRetrievalServer::pin(const RetrievalRequest &request) const
{
    clare_assert(request.arena != nullptr, "retrieval request has no "
                 "arena");
    const term::PredicateId pred =
        term::predicateOf(*request.arena, request.goal);
    std::shared_ptr<const StoredPredicate> pinned =
        store_.predicateVersion(pred, request.snapshot);
    if (pinned == nullptr)
        throw PredicateNotStoredError(symbols_.name(pred.functor) + "/" +
                                          std::to_string(pred.arity),
                                      request.snapshot);
    return pinned;
}

RetrievalResponse
ClauseRetrievalServer::serve(const RetrievalRequest &request)
{
    return serveOne(request, pin(request));
}

std::vector<RetrievalResponse>
ClauseRetrievalServer::serveBatch(const std::vector<RetrievalRequest> &
                                      batch)
{
    const std::size_t n = batch.size();
    std::vector<RetrievalResponse> out;
    if (n == 0)
        return out;

    // Pin and validate every request before serving any: a batch is
    // one unit, so an unstored predicate anywhere in it fails the
    // whole batch with nothing served, counted or cached.
    std::vector<std::shared_ptr<const StoredPredicate>> pins;
    pins.reserve(n);
    bool any_tracing = false;
    for (const RetrievalRequest &request : batch) {
        pins.push_back(pin(request));
        any_tracing = any_tracing || request.trace.enabled;
    }

    ++metrics_.counter("crs.batches", "serveBatch() calls");
    metrics_.gauge("crs.last_batch_size", "requests in the most recent "
                   "batch").set(static_cast<double>(n));

    // One batch-level span groups the per-request roots, which nest
    // under it as the thread's current span, so a traced batch
    // exports as a single tree.
    obs::ScopedSpan batch_span(any_tracing ? &tracer_ : nullptr,
                               "crs.batch");
    batch_span.attr("requests", static_cast<std::uint64_t>(n));

    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(serveOne(batch[i], std::move(pins[i])));
    return out;
}

RetrievalResponse
ClauseRetrievalServer::serveOne(const RetrievalRequest &request,
                                std::shared_ptr<const StoredPredicate>
                                    pinned)
{
    // Everything below — mode selection, cache keys, the scan,
    // unification — derives from the one pinned version, so a commit
    // landing mid-request cannot tear the view.
    const term::PredicateId pred =
        term::predicateOf(*request.arena, request.goal);
    RetrievalResponse response;
    const StoredPredicate &stored = *pinned;
    response.mode = request.mode
        ? *request.mode
        : selectModeFor(*request.arena, request.goal,
                        stored.ruleFraction);
    obs::Observer ob = observer(request.trace);
    obs::ScopedSpan root(ob.tracer, "crs.retrieve");
    root.attr("mode", searchModeSlug(response.mode));

    const bool caching = cachingActive(request);
    std::string goal_key;
    if (caching) {
        goal_key = goalKey(*request.arena, request.goal, response.mode,
                           stored.generation);
        if (std::shared_ptr<const GoalCache::Entry> cached =
                goalCache_->find(goal_key)) {
            serveGoalHit(*cached, response);
            accountQuery(response, root);
            response.version = std::move(pinned);
            return response;
        }
        obs::Counter *misses =
            hot_.cacheMisses.load(std::memory_order_acquire);
        if (misses == nullptr) {
            misses = &metrics_.counter("crs.cache.misses",
                                       "L3 goal-cache misses");
            hot_.cacheMisses.store(misses, std::memory_order_release);
        }
        ++*misses;
    }

    IndexScan scan;
    if (usesFs1(response.mode))
        scan = scanIndex(stored, *request.arena, request.goal, ob,
                         root.id());
    finishRetrieval(stored, request, std::move(scan), ob, root.id(),
                    response);
    if (caching)
        maybeCacheGoal(goal_key, pred, response);
    accountQuery(response, root);
    response.version = std::move(pinned);
    return response;
}

// ---------------------------------------------------------------------
// The single back half / accounting path.
// ---------------------------------------------------------------------

void
ClauseRetrievalServer::finishRetrieval(const StoredPredicate &stored,
                                       const RetrievalRequest &request,
                                       IndexScan scan,
                                       const obs::Observer &obs,
                                       obs::SpanId root,
                                       RetrievalResponse &response)
{
    const TermArena &q_arena = *request.arena;
    TermRef goal = request.goal;
    const storage::ClauseFile &file = stored.clauses;
    const storage::DiskModel &data_disk = store_.dataDisk();
    fs1::Fs1Result &fs1 = scan.fs1;
    StageBreakdown &stages = response.breakdown;

    if (usesFs1(response.mode) && !scan.healthy()) {
        // Graceful degradation: the index cannot be trusted (a page
        // failed its CRC) or read at all, so this query runs as a
        // full FS2 scan of the clause file instead.  Host unification
        // removes the extra candidates, so the answer set is exactly
        // what the healthy index would have produced.  The index read
        // that discovered the damage is still charged.
        response.degraded = true;
        response.corruptIndexPages = scan.corruptPages;
        response.mode = SearchMode::Fs2Only;
        const storage::DiskModel &disk = store_.indexDisk();
        stages.indexTime = disk.accessTime() +
            disk.transferTime(stored.index.image().size()) +
            scan.faultTicks;
        obs::ScopedSpan span(obs.tracer, "disk.index_stream", root);
        span.attr("bytes",
                  static_cast<std::uint64_t>(
                      stored.index.image().size()));
        span.attr("corrupt_pages", static_cast<std::uint64_t>(
                      scan.corruptPages));
        span.attr("unreadable",
                  static_cast<std::uint64_t>(scan.unreadable ? 1 : 0));
        span.setSimTicks(stages.indexTime);
    }
    SearchMode mode = response.mode;

    if (usesFs1(mode)) {
        response.indexEntriesScanned = fs1.entriesScanned;
        response.fs1Hits = fs1.ordinals.size();
        // The index file streams from disk while FS1 scans on the
        // fly: one access, then the transfer overlapped with FS1's
        // own busy time.
        const storage::DiskModel &disk = store_.indexDisk();
        storage::ReadTiming rt = disk.modelRead(fs1.bytesScanned);
        stages.indexTime = rt.access +
            std::max(rt.transfer, fs1.busyTime) + scan.faultTicks;
        obs::ScopedSpan span(obs.tracer, "disk.index_stream", root);
        span.attr("bytes", fs1.bytesScanned);
        span.setSimTicks(stages.indexTime);
    }

    pif::Encoder encoder;
    pif::EncodedArgs q_args = encoder.encodeArgs(q_arena, goal,
                                                 pif::Side::Query);
    term::PredicateId pred = term::predicateOf(q_arena, goal);

    switch (mode) {
      case SearchMode::SoftwareOnly: {
        // The CRS streams the whole clause file and performs partial
        // matching in software before full unification.
        obs::ScopedSpan span(obs.tracer, "crs.software_scan", root);
        unify::PifMatcher matcher(unify::PifMatchConfig{
            config_.fs2.level, config_.fs2.crossBinding});
        pif::EncodedArgs db_args;   // one scratch decode for the scan
        Tick scan_cost = 0;
        for (std::size_t i = 0; i < file.clauseCount(); ++i) {
            file.decodeArgsInto(file.record(i), db_args);
            unify::PifMatchResult m = matcher.match(db_args, q_args);
            scan_cost += config_.host.perClause +
                config_.host.perOp * m.datapathOps();
            ++response.clausesExamined;
            for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                response.filterOps[o] += m.opCounts[o];
            if (m.hit)
                response.candidates.push_back(
                    static_cast<std::uint32_t>(i));
        }
        Tick transfer = data_disk.transferTime(file.image().size());
        stages.filterTime = data_disk.accessTime() +
            std::max(transfer, scan_cost);
        span.attr("clauses", response.clausesExamined);
        span.setSimTicks(stages.filterTime);
        break;
      }

      case SearchMode::Fs1Only: {
        response.candidates = std::move(fs1.ordinals);
        // Fetch the candidate clauses: one sequential sweep of the
        // spanned region, or a seek per candidate — whichever the
        // disk finishes sooner.
        if (!response.candidates.empty()) {
            const auto &first =
                file.record(response.candidates.front());
            const auto &last = file.record(response.candidates.back());
            std::uint64_t span_bytes =
                last.offset + last.length - first.offset;
            std::uint64_t selected = 0;
            for (std::uint32_t c : response.candidates)
                selected += file.record(c).length;
            Tick sweep = data_disk.modelRead(span_bytes).total();
            Tick seeks = data_disk.accessTime() *
                response.candidates.size() +
                data_disk.transferTime(selected);
            stages.filterTime = std::min(sweep, seeks);
            obs::ScopedSpan span(obs.tracer, "disk.candidate_fetch",
                                 root);
            span.attr("candidates",
                      static_cast<std::uint64_t>(
                          response.candidates.size()));
            span.attr("strategy",
                      seeks < sweep ? "seek_per_candidate" : "sweep");
            span.setSimTicks(stages.filterTime);
        }
        break;
      }

      case SearchMode::Fs2Only: {
        fs2::Fs2Engine engine(config_.fs2);
        engine.setObserver(obs, root, request.trace.maxDetailSpans);
        engine.setQuery(q_args, pred);
        fs2::Fs2SearchResult r = engine.search(file, &data_disk,
                                               stored.clauseFileOffset);
        response.candidates = r.acceptedOrdinals;
        response.clausesExamined = r.clausesExamined;
        response.filterOps = r.ops;
        response.resultOverflow = r.resultOverflow;
        response.satisfiersRequeued = r.satisfiersDropped;
        stages.filterTime = r.elapsed;
        break;
      }

      case SearchMode::TwoStage: {
        fs2::Fs2Engine engine(config_.fs2);
        engine.setObserver(obs, root, request.trace.maxDetailSpans);
        engine.setQuery(q_args, pred);
        fs2::Fs2SearchResult r = engine.searchSelected(
            file, fs1.ordinals, &data_disk, stored.clauseFileOffset);
        response.candidates = r.acceptedOrdinals;
        response.clausesExamined = r.clausesExamined;
        response.filterOps = r.ops;
        response.resultOverflow = r.resultOverflow;
        response.satisfiersRequeued = r.satisfiersDropped;
        stages.filterTime = r.elapsed;
        break;
      }
    }

    // resultOverflow / satisfiersRequeued: satisfiers past the Result
    // Memory's capacity were never captured (the real 6-bit counter
    // would wrap and silently overwrite slot 0); they are requeued
    // through the host's ordinary candidate fetch, which hostUnify()
    // already bills per candidate.  The response fields alone carry
    // the signal — overflow is data-dependent and occurs in fault-free
    // runs, so a new span or counter here would perturb the trace and
    // metrics dumps of clean runs.

    if (config_.faults != nullptr) {
        // Model the fault exposure of this query's data-disk reads.
        // A transient error costs a re-seek per retry; a corrupt page
        // is caught by its checksum and recovered with a re-seek plus
        // a page re-transfer; a permanently unreadable chunk is a
        // typed I/O failure.
        std::uint64_t range_start = 0;
        std::uint64_t range_len = 0;
        if (mode == SearchMode::SoftwareOnly ||
            mode == SearchMode::Fs2Only) {
            range_len = file.image().size();
        } else {
            const std::vector<std::uint32_t> &fetched =
                mode == SearchMode::TwoStage ? fs1.ordinals
                                             : response.candidates;
            if (!fetched.empty()) {
                const auto &first = file.record(fetched.front());
                const auto &last = file.record(fetched.back());
                range_start = first.offset;
                range_len = last.offset + last.length - first.offset;
            }
        }
        if (range_len > 0) {
            support::RangeFaults rf = config_.faults->rangeFaults(
                "disk.data", stored.clauseFileOffset + range_start,
                range_len, config_.retry.maxAttempts);
            if (rf.permanent)
                throw IoError(data_disk.geometry().name,
                              "clause data unreadable after " +
                              std::to_string(
                                  config_.retry.maxAttempts) +
                              " attempts");
            Tick penalty = static_cast<Tick>(rf.retries) *
                data_disk.accessTime() + rf.delayTicks;
            penalty += static_cast<Tick>(rf.corruptChunks) *
                (data_disk.accessTime() +
                 data_disk.transferTime(support::kChecksumPageBytes));
            stages.filterTime += penalty;
            if (obs.metrics != nullptr) {
                if (rf.retries > 0)
                    obs.metrics->counter(
                        "disk.retry.attempts",
                        "chunk re-reads after transient errors") +=
                        rf.retries;
                if (rf.corruptChunks > 0)
                    obs.metrics->counter(
                        "disk.retry.reread_pages",
                        "data pages re-read after checksum "
                        "failures") += rf.corruptChunks;
            }
            if (penalty > 0) {
                obs::ScopedSpan span(obs.tracer, "disk.fault_recovery",
                                     root);
                span.attr("retries", static_cast<std::uint64_t>(
                              rf.retries));
                span.attr("reread_pages", static_cast<std::uint64_t>(
                              rf.corruptChunks));
                span.setSimTicks(penalty);
            }
        }
    }

    // Table 1's operation mix, as cumulative per-op counters.
    if (mode == SearchMode::Fs2Only || mode == SearchMode::TwoStage) {
        for (std::size_t o = 0; o < unify::kTueOpCount; ++o) {
            if (response.filterOps[o] > 0) {
                obs.metrics->counter(
                    std::string("fs2.op.") +
                        unify::tueOpName(
                            static_cast<unify::TueOp>(o)),
                    "TUE datapath operations (Table 1)") +=
                    response.filterOps[o];
            }
        }
    }

    {
        obs::ScopedSpan span(obs.tracer, "crs.host_unify", root);
        hostUnify(stored, q_arena, goal, response);
        span.attr("candidates", static_cast<std::uint64_t>(
                      response.candidates.size()));
        span.attr("answers", static_cast<std::uint64_t>(
                      response.answers.size()));
        span.setSimTicks(stages.hostUnifyTime);
    }
    obs.metrics->counter("crs.host_unify_clauses",
                         "candidates fully unified on the host") +=
        response.candidates.size();

    // The one place total latency is derived from the stages.
    response.elapsed = stages.serviceTime();
}

void
ClauseRetrievalServer::accountQuery(RetrievalResponse &response,
                                    obs::ScopedSpan &root)
{
    // Instruments resolve once into hot_ (see HotMetrics): building
    // the name/description strings per request would by itself sink
    // the warm path's near-zero allocation budget.
    obs::Counter *queries = hot_.queries.load(std::memory_order_acquire);
    if (queries == nullptr) {
        queries = &metrics_.counter("crs.queries", "retrievals served");
        hot_.candidates.store(
            &metrics_.counter("crs.candidates",
                              "candidates across all retrievals"), std::memory_order_release);
        hot_.answers.store(
            &metrics_.counter("crs.answers",
                              "answers across all retrievals"), std::memory_order_release);
        hot_.falseDrops.store(
            &metrics_.counter("crs.false_drops",
                              "candidates rejected by full unification"), std::memory_order_release);
        hot_.queries.store(queries, std::memory_order_release);
    }
    ++*queries;
    // The sibling slots were published (at the latest) by the racer
    // that stored queries; the registry returns the same instrument
    // to every thread, so a stale nullptr just re-registers.
    *hot_.candidates.load(std::memory_order_acquire) +=
        response.candidates.size();
    *hot_.answers.load(std::memory_order_acquire) +=
        response.answers.size();
    *hot_.falseDrops.load(std::memory_order_acquire) +=
        response.falseDrops();
    std::atomic<obs::Counter *> &mode_slot =
        hot_.mode[static_cast<std::size_t>(response.mode)];
    obs::Counter *mode_counter = mode_slot.load(std::memory_order_acquire);
    if (mode_counter == nullptr) {
        mode_counter = &metrics_.counter(
            std::string("crs.mode.") + searchModeSlug(response.mode),
            "retrievals served in this mode");
        mode_slot.store(mode_counter, std::memory_order_release);
    }
    ++*mode_counter;
    // Degradation counters exist only once a query degrades, so a
    // clean run's metrics dump is bit-identical to a fault-free build.
    if (response.degraded) {
        ++metrics_.counter("crs.degraded.queries",
                           "retrievals downgraded to a full scan");
        metrics_.counter("crs.degraded.corrupt_index_pages",
                         "index pages that failed their CRC check") +=
            response.corruptIndexPages;
    }
    obs::Histogram *elapsed = hot_.elapsed.load(std::memory_order_acquire);
    if (elapsed == nullptr) {
        elapsed = &metrics_.histogram("crs.elapsed_us", latencyBoundsUs(),
                                      "retrieval latency, simulated us");
        hot_.elapsed.store(elapsed, std::memory_order_release);
    }
    elapsed->record(static_cast<double>(response.elapsed) / kTicksPerUs);
    // Surface the operator-new interpose through the registry so a
    // metrics dump carries the allocation story next to the latency
    // one.  Registered only when the hook is live: other builds keep
    // their dumps byte-identical to pre-interpose binaries.
    if (support::allocCountingEnabled()) {
        obs::Gauge *heap = hot_.heapAllocs.load(std::memory_order_acquire);
        if (heap == nullptr) {
            heap = &metrics_.gauge(
                "process.heap_allocs",
                "heap allocations since process start "
                "(-DCLARE_COUNT_ALLOCS=ON interpose)");
            hot_.heapAllocs.store(heap, std::memory_order_release);
        }
        heap->set(static_cast<double>(support::allocationCount()));
    }

    if (root.active()) {
        response.traceSpan = root.id();
        root.attr("candidates", static_cast<std::uint64_t>(
                      response.candidates.size()));
        root.attr("answers", static_cast<std::uint64_t>(
                      response.answers.size()));
        if (response.degraded)
            root.attr("degraded", static_cast<std::uint64_t>(1));
        root.setSimTicks(response.breakdown.serviceTime());
    }
}

} // namespace clare::crs
