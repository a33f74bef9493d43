/**
 * @file
 * Experiment S1 — the footnote-† motivation: conventional Prolog
 * systems "were unable to cope with more than about 60k clauses and
 * even then the overhead of loading these clauses into main memory
 * was very high".
 *
 * The harness sweeps knowledge-base size and compares, per query:
 *
 *   - a conventional in-memory Prolog system model: every clause of
 *     the predicate must first be LOADED from disk into memory (paid
 *     on first touch, amortizable), then scanned with software
 *     unification; above a memory budget the system simply cannot
 *     hold the predicate (the 60k-clause wall),
 *   - CLARE retrieval (two-stage hardware filter), which streams from
 *     disk per query and needs no resident copy.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench_util.hh"
#include "fs1/fs1_engine.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

using namespace clare;

namespace {

/**
 * Experiment S4 — host scan rate of the bit-sliced FS1 kernel: the
 * row-major scan decodes every entry's signature per query, while the
 * transposed plane evaluates 64 entries per word op and touches only
 * the planes whose query bits are set; batch widths > 1 then amortize
 * plane memory traffic across same-predicate queries.  Survivor sets
 * (and all modeled timing) are checked bit-identical per row.
 */
void
slicedScanSweep(json::Value &json_rows)
{
    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 60000;
    spec.atomVocabulary = 4000;
    spec.varProb = 0.05;
    spec.structProb = 0.2;
    spec.seed = 9;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const crs::StoredPredicate &stored = store.predicate(pred);

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.9;
    qspec.sharedVarProb = 0.0;
    qspec.perturbProb = 0.0;
    qspec.seed = 12;
    workload::QueryGenerator qgen(sym, qspec);
    std::vector<scw::Signature> queries;
    for (int i = 0; i < 16; ++i) {
        workload::GeneratedQuery q = qgen.generate(program, pred);
        queries.push_back(store.generator().encode(q.arena, q.goal));
    }
    const double batch_bytes =
        static_cast<double>(stored.index.image().size()) *
        static_cast<double>(queries.size());
    constexpr int kReps = 3;

    fs1::Fs1Engine engine(store.generator());

    // One timed pass: all queries, grouped `width` at a time through
    // the plane, or per query through the row-major oracle.
    auto run = [&](bool is_sliced, std::size_t width) {
        std::vector<fs1::Fs1Result> results;
        if (!is_sliced) {
            for (const scw::Signature &q : queries)
                results.push_back(engine.searchRowMajor(stored.index, q));
            return results;
        }
        for (std::size_t q0 = 0; q0 < queries.size();
             q0 += std::max<std::size_t>(width, 1)) {
            std::size_t count =
                std::min(std::max<std::size_t>(width, 1),
                         queries.size() - q0);
            std::vector<scw::Signature> group(
                queries.begin() + static_cast<std::ptrdiff_t>(q0),
                queries.begin() + static_cast<std::ptrdiff_t>(q0 +
                                                              count));
            std::vector<obs::Observer> obss(count);
            std::vector<fs1::Fs1Result> part = engine.searchBatch(
                stored.index, stored.sliced.get(), group, obss);
            for (fs1::Fs1Result &r : part)
                results.push_back(std::move(r));
        }
        return results;
    };

    Table t("Bit-sliced FS1 kernel: host scan rate vs batch width "
            "(60k entries, 16 queries)");
    t.header({"Kernel", "Width", "Wall time", "Scan rate", "Speedup",
              "Identical results"});

    std::vector<fs1::Fs1Result> baseline;
    double base_seconds = 0.0;
    struct Variant { const char *name; bool is_sliced; std::size_t width; };
    for (const Variant v : {Variant{"row-major", false, 1},
                            Variant{"sliced", true, 1},
                            Variant{"sliced", true, 4},
                            Variant{"sliced", true, 8},
                            Variant{"sliced", true, 16}}) {
        run(v.is_sliced, v.width);    // warm-up
        auto start = std::chrono::steady_clock::now();
        std::vector<fs1::Fs1Result> results;
        for (int rep = 0; rep < kReps; ++rep)
            results = run(v.is_sliced, v.width);
        auto stop = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(stop - start).count() / kReps;

        bool identical = true;
        if (!v.is_sliced) {
            baseline = results;
            base_seconds = seconds;
        } else {
            for (std::size_t i = 0; i < results.size(); ++i) {
                identical = identical &&
                    results[i].clauseOffsets ==
                        baseline[i].clauseOffsets &&
                    results[i].ordinals == baseline[i].ordinals &&
                    results[i].entriesScanned ==
                        baseline[i].entriesScanned &&
                    results[i].bytesScanned ==
                        baseline[i].bytesScanned &&
                    results[i].busyTime == baseline[i].busyTime;
            }
        }

        char wall[32], speedup[32];
        std::snprintf(wall, sizeof(wall), "%.2f ms", seconds * 1e3);
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      base_seconds / seconds);
        t.row({v.name, std::to_string(v.width), wall,
               bench::formatRate(batch_bytes / seconds), speedup,
               identical ? "yes" : "NO"});

        json::Value row = json::Value::object();
        row.set("sweep", "sliced_scan_rate");
        row.set("sliced", v.is_sliced);
        row.set("batch_width", static_cast<std::uint64_t>(v.width));
        row.set("wall_seconds", seconds);
        row.set("bytes_per_second", batch_bytes / seconds);
        row.set("speedup", base_seconds / seconds);
        row.set("identical", identical);
        json_rows.push(std::move(row));
    }
    t.print(std::cout);
    std::printf("\nshape: slicing wins even at width 1 (only the "
                "query's set bits load plane rows,\nno per-entry "
                "decode); widths > 1 reuse each cache-resident plane "
                "block across\nthe batch.  Survivors, scan statistics, "
                "and modeled busy time are bit-identical\nto the "
                "row-major kernel in every row.\n");
}

/**
 * Experiment S2 — host-side scaling of the sharded retrieval
 * pipeline: wall-clock throughput of a query batch as the worker
 * count grows, with a bit-identical-results check against the
 * single-threaded path.  (The simulated Ticks model the 1989 hardware
 * and are identical at every worker count; this table measures the
 * *simulator host's* clock, i.e. how fast the production server core
 * actually runs retrievals.)
 */
void
workerScalingSweep(const bench::ScanKnobs &knobs,
                   json::Value &json_rows)
{
    using Request = crs::RetrievalRequest;

    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 20000;
    spec.atomVocabulary = 4000;
    spec.varProb = 0.05;
    spec.structProb = 0.2;
    spec.seed = 9;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.9;
    qspec.sharedVarProb = 0.0;
    qspec.perturbProb = 0.0;
    qspec.seed = 12;
    workload::QueryGenerator qgen(sym, qspec);
    std::vector<workload::GeneratedQuery> queries;
    std::vector<Request> batch;
    for (int i = 0; i < 24; ++i)
        queries.push_back(qgen.generate(program, pred));
    for (const workload::GeneratedQuery &q : queries)
        batch.push_back(Request{&q.arena, q.goal,
                                crs::SearchMode::TwoStage});

    Table t("Sharded pipeline: wall-clock throughput vs workers "
            "(20k clauses, 24 two-stage queries)");
    t.header({"Workers", "Wall time", "Queries/s", "Speedup",
              "Identical results"});

    std::vector<crs::RetrievalResponse> baseline;
    double base_seconds = 0.0;
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        crs::CrsConfig config;
        config.workers = workers;
        knobs.apply(config);
        crs::ClauseRetrievalServer server(sym, store, config);
        // Warm-up pass so allocator/page effects don't skew the 1-
        // worker baseline.
        server.serveBatch(batch);

        auto start = std::chrono::steady_clock::now();
        std::vector<crs::RetrievalResponse> results =
            server.serveBatch(batch);
        auto stop = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(stop - start).count();

        bool identical = true;
        if (workers == 1) {
            baseline = results;
            base_seconds = seconds;
        } else {
            for (std::size_t i = 0; i < results.size(); ++i) {
                identical = identical &&
                    results[i].candidates == baseline[i].candidates &&
                    results[i].answers == baseline[i].answers &&
                    results[i].elapsed == baseline[i].elapsed;
            }
        }

        char qps[32], speedup[32];
        std::snprintf(qps, sizeof(qps), "%.1f",
                      static_cast<double>(batch.size()) / seconds);
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      base_seconds / seconds);
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.1f ms", seconds * 1e3);
        t.row({std::to_string(workers), wall, qps, speedup,
               identical ? "yes" : "NO"});

        Tick queue_wait = 0;
        for (const crs::RetrievalResponse &r : results)
            queue_wait += r.breakdown.queueWait;
        json::Value row = json::Value::object();
        row.set("sweep", "worker_scaling");
        row.set("workers", workers);
        if (knobs.batchWidth > 0)
            row.set("batch_width", knobs.batchWidth);
        row.set("wall_seconds", seconds);
        row.set("identical", identical);
        row.set("total_queue_wait_ticks", queue_wait);
        json_rows.push(std::move(row));
    }
    t.print(std::cout);
    unsigned cores = std::thread::hardware_concurrency();
    std::printf("\nhost cores: %u\n", cores);
    std::printf("shape: the FS1 index scan shards across the worker "
                "pool and overlaps the next\nquery's scan with the "
                "current query's FS2 + host unification, so wall-clock\n"
                "throughput scales with the host's cores while "
                "candidates, answers, and\nsimulated Ticks stay "
                "bit-identical.  On a host with fewer cores than\n"
                "workers expect parity, not speedup: the pipeline "
                "timeshares one core and the\nrows only demonstrate "
                "that results do not depend on the worker count.\n");
}

/**
 * Experiment S3 — paced device replay: the FS1 engine is hardware the
 * host *waits on*, not computes, so here each scan shard sleeps its
 * modeled device time (scaled down 4x from the 4.5 MB/s rate).
 * Sharding makes concurrent shards wait concurrently and the pipeline
 * hides query k+1's device wait under query k's host work, so the
 * sweep shows genuine wall-clock speedup even on a single host core —
 * the paper's reason for overlapping FS1 with FS2.
 */
void
pacedDeviceSweep(json::Value &json_rows)
{
    using Request = crs::RetrievalRequest;

    term::SymbolTable sym;
    workload::KbGenerator kbgen(sym);
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 20000;
    spec.atomVocabulary = 4000;
    spec.varProb = 0.05;
    spec.structProb = 0.2;
    spec.seed = 9;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.9;
    qspec.sharedVarProb = 0.0;
    qspec.perturbProb = 0.0;
    qspec.seed = 12;
    workload::QueryGenerator qgen(sym, qspec);
    std::vector<workload::GeneratedQuery> queries;
    std::vector<Request> batch;
    for (int i = 0; i < 12; ++i)
        queries.push_back(qgen.generate(program, pred));
    for (const workload::GeneratedQuery &q : queries)
        batch.push_back(Request{&q.arena, q.goal,
                                crs::SearchMode::TwoStage});

    Table t("Paced device replay: wall-clock vs workers (device waits "
            "slept at 1/4 scale)");
    t.header({"Workers", "Wall time", "Queries/s", "Speedup",
              "Identical results"});

    std::vector<crs::RetrievalResponse> baseline;
    double base_seconds = 0.0;
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        crs::CrsConfig config;
        config.workers = workers;
        config.fs1.paceScale = 4.0;
        crs::ClauseRetrievalServer server(sym, store, config);
        server.serveBatch(batch);    // warm-up

        auto start = std::chrono::steady_clock::now();
        std::vector<crs::RetrievalResponse> results =
            server.serveBatch(batch);
        auto stop = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(stop - start).count();

        bool identical = true;
        if (workers == 1) {
            baseline = results;
            base_seconds = seconds;
        } else {
            for (std::size_t i = 0; i < results.size(); ++i) {
                identical = identical &&
                    results[i].candidates == baseline[i].candidates &&
                    results[i].answers == baseline[i].answers &&
                    results[i].elapsed == baseline[i].elapsed;
            }
        }

        char wall[32], qps[32], speedup[32];
        std::snprintf(wall, sizeof(wall), "%.1f ms", seconds * 1e3);
        std::snprintf(qps, sizeof(qps), "%.1f",
                      static_cast<double>(batch.size()) / seconds);
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      base_seconds / seconds);
        t.row({std::to_string(workers), wall, qps, speedup,
               identical ? "yes" : "NO"});

        json::Value row = json::Value::object();
        row.set("sweep", "paced_device");
        row.set("workers", workers);
        row.set("wall_seconds", seconds);
        row.set("identical", identical);
        json_rows.push(std::move(row));
    }
    t.print(std::cout);
    std::printf("\nshape: device waits, unlike host compute, overlap "
                "on any core count: sharding\nsplits one query's wait "
                "across workers, and the pipeline keeps up to "
                "`workers`\nscans in flight so their waits overlap "
                "each other and the back half.  Simulated\nTicks are "
                "untouched by pacing and stay bit-identical.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string json_path = bench::jsonPathArg(argc, argv);
    bench::ScanKnobs scan_knobs = bench::scanConfigArg(argc, argv);
    json::Value json_rows = json::Value::array();

    // A 4 MB Sun3/160-class memory budget, minus system overhead:
    // the footnote's benchmark machine.
    constexpr std::uint64_t kMemoryBudget = 3u * 1024 * 1024;
    crs::HostCostModel host;    // M68020-class software costs

    Table t("KB size sweep: in-memory Prolog vs CLARE retrieval "
            "(one query over the predicate)");
    t.header({"Clauses", "KB bytes", "Fits 3MB?", "Load time",
              "In-mem scan", "CLARE (FS1+FS2)", "CLARE answers"});

    for (std::uint32_t clauses : {1000u, 4000u, 16000u, 60000u,
                                  120000u}) {
        term::SymbolTable sym;
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = clauses;
        spec.atomVocabulary = 2000;
        spec.varProb = 0.05;
        spec.structProb = 0.2;
        spec.seed = 3;
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];

        bench::CompiledStore cs = bench::compileStore(sym, program);
        const crs::StoredPredicate &stored =
            cs.store->predicate(pred);
        std::uint64_t kb_bytes = stored.clauses.image().size();
        bool fits = kb_bytes <= kMemoryBudget;

        // Conventional system: load whole predicate from disk, then
        // software-scan every clause (per-clause overhead only; the
        // partial-match ops are a second-order term here).
        const storage::DiskModel &disk = cs.store->dataDisk();
        Tick load = disk.accessTime() + disk.transferTime(kb_bytes);
        Tick scan = host.perClause * clauses;

        // CLARE: two-stage retrieval per query.
        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.8;
        qspec.sharedVarProb = 0.0;
        qspec.perturbProb = 0.0;    // queries always have answers
        qspec.seed = 5;
        workload::QueryGenerator qgen(sym, qspec);
        workload::GeneratedQuery q = qgen.generate(program, pred);
        crs::RetrievalResponse r = bench::serveOne(
            *cs.server, q.arena, q.goal, crs::SearchMode::TwoStage);

        t.row({std::to_string(clauses), std::to_string(kb_bytes),
               fits ? "yes" : "NO",
               bench::formatTime(load),
               fits ? bench::formatTime(scan) : "(cannot run)",
               bench::formatTime(r.elapsed),
               std::to_string(r.answers.size())});

        json::Value row = bench::responseJson(r);
        row.set("sweep", "kb_size");
        row.set("clauses", clauses);
        row.set("kb_bytes", kb_bytes);
        json_rows.push(std::move(row));
    }
    t.print(std::cout);

    std::printf("\nshape: the in-memory system pays a load that grows "
                "with KB size and hits the\nmemory wall around the "
                "60k-clause mark, while CLARE's per-query retrieval\n"
                "scans the (much smaller) index at 4.5 MB/s and "
                "fetches only candidates.\n\n");

    // Per-query amortization at a scale that does NOT fit memory:
    // the conventional system would need >3 MB resident (infeasible
    // on the footnote's 4 MB workstation), so its line is
    // hypothetical; CLARE pays per query but needs no resident copy.
    {
        term::SymbolTable sym;
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = 120000;
        spec.varProb = 0.05;
        spec.seed = 3;
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];
        bench::CompiledStore cs = bench::compileStore(sym, program);

        const storage::DiskModel &disk = cs.store->dataDisk();
        std::uint64_t kb_bytes =
            cs.store->predicate(pred).clauses.image().size();
        Tick load = disk.accessTime() + disk.transferTime(kb_bytes);
        Tick scan = host.perClause * 120000;

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.8;
        qspec.perturbProb = 0.0;
        qspec.seed = 6;
        workload::QueryGenerator qgen(sym, qspec);
        workload::GeneratedQuery q = qgen.generate(program, pred);
        crs::RetrievalResponse r = bench::serveOne(
            *cs.server, q.arena, q.goal, crs::SearchMode::TwoStage);

        Table amortize("Amortization (120k clauses, ~11 MB — exceeds "
                       "the 4 MB workstation)");
        amortize.header({"Queries",
                         "In-memory (hypothetical, needs >3MB RAM)",
                         "CLARE (N retrievals, no resident copy)"});
        for (std::uint64_t n : {1u, 10u, 100u, 1000u}) {
            amortize.row({std::to_string(n),
                          bench::formatTime(load + scan * n),
                          bench::formatTime(r.elapsed * n)});
        }
        amortize.print(std::cout);
        std::printf("\nshape: once the KB exceeds main memory the "
                    "conventional system simply cannot\nrun; CLARE "
                    "trades per-query disk traffic for unbounded KB "
                    "size — the design's\npoint. Where both run, a "
                    "resident copy amortizes better, which is why the\n"
                    "PDBM keeps SMALL modules in memory and sends only "
                    "LARGE ones through CLARE.\n");
    }

    std::printf("\n");
    workerScalingSweep(scan_knobs, json_rows);
    std::printf("\n");
    pacedDeviceSweep(json_rows);
    std::printf("\n");
    slicedScanSweep(json_rows);

    if (!bench::writeBenchJson(json_path, "scaling",
                               std::move(json_rows)))
        return 1;
    return 0;
}
