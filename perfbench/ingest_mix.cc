/**
 * @file
 * ingest_mix: one thread interleaves LiveStore::assertz commits with
 * keyed reads of the predicate being written, one commit per nine
 * reads, over a reference KB of 4 x 2000 facts with the shipped
 * defaults.  Half the reads use base keys, half use keys asserted
 * earlier in the round.  The WAL uses the shipped flush policy (fsync
 * per commit) in the run's work directory.
 *
 * The run is a sequence of rounds of a fixed operation count, each on
 * a freshly built store and WAL, so every round reaches the same store
 * size and rss_peak_mb compares like with like whatever --seconds is.
 * The read path is keyed_cold's, with writes beside the reads (MVCC
 * versions, delta images, WAL).
 */

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "replay.hh"
#include "storage/wal.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::uint32_t kFacts = 2000;
constexpr std::uint32_t kCommitsPerRound = 200;
constexpr std::uint32_t kReadsPerCommit = 9;
constexpr std::uint32_t kOpsPerRound =
    kCommitsPerRound * (kReadsPerCommit + 1);
constexpr std::size_t kBaseGoals = 256;

struct Goal
{
    term::TermArena arena;
    term::TermRef root = term::kNoTerm;
    /** Expected answers (asserts of fresh keys never change them). */
    std::vector<std::uint32_t> answers;
};

/** Generated once per run; rounds rebuild only the store. */
struct Inputs
{
    term::SymbolTable symbols;
    term::Program program;
    term::PredicateId hot;
    std::vector<Goal> baseGoals;
    /** Asserted clauses (source text and parsed) and their key goals. */
    std::vector<std::string> texts;
    std::vector<term::Clause> clauses;
    std::vector<Goal> freshGoals;
    /** Per operation: commit, base read or fresh-key read, and which. */
    std::vector<std::uint32_t> schedule;
};

/** One round's store, WAL and server. */
struct Round
{
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::LiveStore> live;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
};

constexpr std::uint32_t kCommitOp = 0xffffffffu;
constexpr std::uint32_t kFreshBit = 0x80000000u;

std::unique_ptr<Inputs>
buildInputs(std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    workload::KbGenerator generator(in->symbols);
    in->program = generator.generate(referenceKb(kFacts, seed));
    in->hot = in->program.predicates().front();
    const std::string functor = in->symbols.name(in->hot.functor);

    Rng rng(seed * 131 + 3);
    const std::vector<std::size_t> &heads =
        in->program.clausesOf(in->hot);
    for (std::size_t i = 0; i < kBaseGoals; ++i) {
        Goal goal;
        goal.root = keyedGoal(in->symbols, in->program,
                              heads[rng.below(heads.size())], goal.arena);
        in->baseGoals.push_back(std::move(goal));
    }

    term::TermReader reader(in->symbols);
    for (std::uint32_t j = 0; j < kCommitsPerRound; ++j) {
        std::string key = "k";
        key += std::to_string(j);
        std::string text = functor + "(" + key + ", a" +
            std::to_string(rng.below(2000)) + ").";
        in->clauses.push_back(reader.parseClause(text));
        in->texts.push_back(std::move(text));
        term::ParsedTerm parsed =
            reader.parseTerm(functor + "(" + key + ", B)");
        Goal goal;
        goal.arena = std::move(parsed.arena);
        goal.root = parsed.root;
        goal.answers = {kFacts + j};
        in->freshGoals.push_back(std::move(goal));
    }

    std::uint32_t commits = 0;
    for (std::uint32_t op = 0; op < kOpsPerRound; ++op) {
        if (op % (kReadsPerCommit + 1) == 0) {
            in->schedule.push_back(kCommitOp);
            ++commits;
        } else if (rng.below(2) == 0) {
            in->schedule.push_back(
                static_cast<std::uint32_t>(rng.below(kBaseGoals)));
        } else {
            in->schedule.push_back(
                kFreshBit |
                static_cast<std::uint32_t>(rng.below(commits)));
        }
    }
    return in;
}

std::unique_ptr<Round>
openRound(Inputs &in, const std::string &wal_path)
{
    std::filesystem::remove(wal_path);
    auto r = std::make_unique<Round>();
    r->store = std::make_unique<crs::PredicateStore>(
        in.symbols, scw::CodewordGenerator{});
    r->store->addProgram(in.program);
    r->store->finalize();
    r->live = std::make_unique<crs::LiveStore>(*r->store, in.symbols,
                                               wal_path);
    r->server = std::make_unique<crs::ClauseRetrievalServer>(
        in.symbols, *r->store, crs::CrsConfig{});
    r->live->attachSink(r->server.get());
    return r;
}

crs::RetrievalRequest
requestFor(const Goal &goal)
{
    crs::RetrievalRequest request;
    request.arena = &goal.arena;
    request.goal = goal.root;
    return request;
}

/** Per-round measurements and the traced run's extras. */
struct Totals
{
    /** Every operation, timed on the clock of op time across rounds. */
    Timeline all;
    Samples writes;
    Samples reads;
    double opSeconds = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t checksum = 0;
    ServerCounts counts;

    Tracer *tracer = nullptr;
    Samples tracedOps;
    Samples serveUs;
    Samples walUs;
    RetrievalCounts replayCounts;
};

/**
 * One round: the fixed schedule against a fresh store, then the
 * round's checks.  @p full_check re-reads every asserted key.
 */
void
runRound(Inputs &in, const Args &args, std::uint64_t round,
         bool full_check, Totals &t, Result &result)
{
    const std::string wal_path = args.workDir + "/ingest.wal";
    std::unique_ptr<Round> r = openRound(in, wal_path);

    term::TermReader reader(in.symbols);
    term::ParsedTerm probe = reader.parseTerm(
        in.symbols.name(in.hot.functor) + "(A, B)");
    crs::RetrievalRequest probe_request;
    probe_request.arena = &probe.arena;
    probe_request.goal = probe.root;
    probe_request.snapshot = 0;
    const crs::RetrievalResponse probe_ref =
        r->server->serve(probe_request);

    std::unique_ptr<storage::Wal> shadow;
    std::unique_ptr<RetrievalReplay> replay;
    if (t.tracer != nullptr) {
        const std::string shadow_path = args.workDir + "/shadow.wal";
        std::filesystem::remove(shadow_path);
        shadow = std::make_unique<storage::Wal>(shadow_path);
        replay = std::make_unique<RetrievalReplay>(in.symbols, *r->store,
                                                   *r->server);
    }

    std::uint32_t commits = 0;
    Clock::time_point round_start = Clock::now();
    for (std::uint32_t slot : in.schedule) {
        const std::uint64_t op = t.ops++;
        ++result.attempted;
        if (slot == kCommitOp) {
            const term::Clause &clause = in.clauses[commits];
            double us = 0.0;
            if (t.tracer != nullptr) {
                t.tracer->beginOp(op);
                t.tracer->open("op");
                t.tracer->open("live.assertz");
                r->live->assertz(clause);
                us = t.tracer->close();
                t.tracedOps.record(t.tracer->close());
                // The WAL's share: the same record appended and
                // committed to a second log.
                const std::string &text = in.texts[commits];
                std::vector<std::uint8_t> payload{0};
                const auto len = static_cast<std::uint32_t>(text.size());
                for (int b = 0; b < 4; ++b)
                    payload.push_back(
                        static_cast<std::uint8_t>(len >> (8 * b)));
                payload.insert(payload.end(), text.begin(), text.end());
                t.tracer->open("wal.commit");
                shadow->append(storage::Wal::RecordKind::Assert, payload);
                shadow->commit();
                t.walUs.record(t.tracer->close());
            } else {
                Clock::time_point a = Clock::now();
                r->live->assertz(clause);
                us = micros(a, Clock::now());
            }
            t.writes.record(us);
            t.all.record(t.opSeconds + secondsSince(round_start), us);
            ++commits;
            continue;
        }

        const bool fresh = (slot & kFreshBit) != 0;
        const Goal &goal = fresh ? in.freshGoals[slot & ~kFreshBit]
                                 : in.baseGoals[slot];
        crs::RetrievalRequest request = requestFor(goal);
        crs::RetrievalResponse response;
        double us = 0.0;
        if (t.tracer != nullptr) {
            t.tracer->beginOp(op);
            t.tracer->open("op");
            ReplayOutcome replayed =
                replay->run(*t.tracer, goal.arena, goal.root);
            t.tracedOps.record(t.tracer->close());
            Clock::time_point a = Clock::now();
            response = r->server->serve(request);
            us = micros(a, Clock::now());
            t.serveUs.record(us);
            if (!sameRetrieval(replayed, response))
                ++result.failed;
        } else {
            Clock::time_point a = Clock::now();
            response = r->server->serve(request);
            us = micros(a, Clock::now());
        }
        t.reads.record(us);
        t.all.record(t.opSeconds + secondsSince(round_start), us);
        if (response.answers != goal.answers)
            ++result.failed;
        if (round == 0 && op < kChecksumOps)
            t.checksum = foldChecksum(t.checksum, response.elapsed);
    }
    t.opSeconds += secondsSince(round_start);
    if (replay != nullptr) {
        const RetrievalCounts &c = replay->counts();
        t.replayCounts.ops += c.ops;
        t.replayCounts.candidates += c.candidates;
        t.replayCounts.answers += c.answers;
        t.replayCounts.fs1Entries += c.fs1Entries;
        t.replayCounts.fs1Survivors += c.fs1Survivors;
        t.replayCounts.fs2Clauses += c.fs2Clauses;
        t.replayCounts.parses += c.parses;
    }

    // Round checks: the head generation counts the commits, every
    // asserted clause is retrievable at the head, and the snapshot-0
    // view is untouched.
    if (r->store->headGeneration() != commits)
        result.fail("head generation " +
                    std::to_string(r->store->headGeneration()) +
                    " != commits " + std::to_string(commits));
    if (full_check) {
        for (std::uint32_t j = 0; j < commits; ++j) {
            if (r->server->serve(requestFor(in.freshGoals[j])).answers !=
                in.freshGoals[j].answers)
                result.fail("asserted clause " + std::to_string(j) +
                            " not retrievable at the head");
        }
    }
    crs::RetrievalResponse probe_now = r->server->serve(probe_request);
    if (probe_now.answers != probe_ref.answers ||
        probe_now.elapsed != probe_ref.elapsed)
        result.fail("snapshot-0 probe changed under commits");
    t.counts.add(r->server->metrics());
}

} // namespace

Result
runIngestMix(const Args &args)
{
    Result result;
    std::unique_ptr<Inputs> in;
    std::unique_ptr<Round> warm;
    const std::string wal_path = args.workDir + "/ingest.wal";
    const double setup = timedSetup([&] {
        warm.reset();
        in.reset();
        in = buildInputs(args.seed);
        warm = openRound(*in, wal_path);
        for (std::uint64_t i = 0; i < kWarmupOps; ++i)
            warm->server->serve(
                requestFor(in->baseGoals[i % in->baseGoals.size()]));
    });
    // Base-key answers before any commit are the oracle for every
    // later read: commits only assert fresh keys.
    for (Goal &goal : in->baseGoals)
        goal.answers = warm->server->serve(requestFor(goal)).answers;
    warm.reset();

    Totals t;
    const double untraced_seconds =
        args.trace ? args.seconds * 0.3 : args.seconds;
    std::uint64_t round = 0;
    const std::uint64_t rss_before = currentRssBytes();
    double bytes_per_commit = 0.0;
    while (t.opSeconds < untraced_seconds ||
           (!args.trace && t.all.count() < kMinSamples)) {
        runRound(*in, args, round, round == 0, t, result);
        if (round == 0)
            bytes_per_commit =
                (static_cast<double>(currentRssBytes()) -
                 static_cast<double>(rss_before)) /
                kCommitsPerRound;
        ++round;
    }
    const double ops_per_s = t.all.rate();
    const Timeline untraced_all = t.all;

    if (args.trace) {
        Tracer tracer;
        Totals traced;
        traced.tracer = &tracer;
        while (traced.opSeconds < args.seconds * 0.7) {
            runRound(*in, args, round, false, traced, result);
            ++round;
        }
        setRetrievalLayerMetrics(result, tracer, traced.replayCounts);
        traced.counts.setMetrics(result);
        result.set("crs.serve_us", traced.serveUs.mean());
        const double wal_us = traced.walUs.mean();
        result.set("wal.commit_us", wal_us);
        result.set("live.publish_us",
                   meanSpanUs(tracer, "live.assertz") - wal_us);
        result.set("live.bytes_per_commit", bytes_per_commit);
        result.set("trace.overhead",
                   traced.tracedOps.quantile(0.5) /
                           untraced_all.quantile(0.5) -
                       1.0);
        const SpanTotals root = tracer.totalsOf("op");
        result.set("trace.unattributed_share",
                   root.totalUs > 0 ? root.selfUs / root.totalUs : 0.0);
        tracer.writeJson(args.traceDir + "/ingest_mix.json",
                         args.workload);
    } else {
        result.set("setup_s", setup);
        result.set("ops_per_s", ops_per_s);
        result.set("p50_us", untraced_all.quantile(0.50));
        result.set("p99_us", untraced_all.quantile(0.99));
        result.set("rss_peak_mb", peakRssMb());
    }
    std::filesystem::remove(wal_path);
    std::filesystem::remove(args.workDir + "/shadow.wal");

    noteRun(result, args, t.checksum, untraced_all.count(),
            threadCount());
    result.note("loop", "closed, 1 thread, " +
                std::to_string(kCommitsPerRound) + " commits + " +
                std::to_string(kCommitsPerRound * kReadsPerCommit) +
                " reads per round, " + std::to_string(round) + " rounds");
    result.note("write_p50_us", t.writes.quantile(0.50));
    result.note("write_p99_us", t.writes.quantile(0.99));
    result.note("read_p50_us", t.reads.quantile(0.50));
    result.note("read_p99_us", t.reads.quantile(0.99));
    result.note("rss_bytes_per_commit_round0", bytes_per_commit);
    return result;
}

} // namespace perfbench
