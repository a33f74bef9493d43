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
 * the planes whose query bits are set.  Survivor sets (and all
 * modeled timing) are checked bit-identical per row.
 */
void
slicedScanSweep(fs1::Fs1Kernel kernel, json::Value &json_rows)
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
    const std::shared_ptr<const crs::StoredPredicate> pinned =
        store.predicateVersion(pred);
    const crs::StoredPredicate &stored = *pinned;

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

    fs1::Fs1Config fs1_config;
    fs1_config.kernel = kernel;
    fs1::Fs1Engine engine(store.generator(), fs1_config);

    // One timed pass: every query through the plane, or through the
    // row-major oracle.
    auto run = [&](bool is_sliced) {
        std::vector<fs1::Fs1Result> results;
        for (const scw::Signature &q : queries)
            results.push_back(
                is_sliced
                    ? engine.search(stored.index, stored.sliced.get(),
                                    nullptr, 0, q, nullptr, 1)
                    : engine.searchRowMajor(stored.index, q));
        return results;
    };

    Table t("Bit-sliced FS1 kernel: host scan rate (60k entries, 16 "
            "queries)");
    t.header({"Scan", "Wall time", "Scan rate", "Speedup",
              "Identical results"});

    const std::string sliced_label = std::string("sliced (") +
        fs1::kernelName(fs1::resolveKernel(kernel)) + ")";
    std::vector<fs1::Fs1Result> baseline;
    double base_seconds = 0.0;
    for (const bool is_sliced : {false, true}) {
        run(is_sliced);    // warm-up
        auto start = std::chrono::steady_clock::now();
        std::vector<fs1::Fs1Result> results;
        for (int rep = 0; rep < kReps; ++rep)
            results = run(is_sliced);
        auto stop = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(stop - start).count() / kReps;

        bool identical = true;
        if (!is_sliced) {
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
        t.row({is_sliced ? sliced_label : "row-major", wall,
               bench::formatRate(batch_bytes / seconds), speedup,
               identical ? "yes" : "NO"});

        json::Value row = json::Value::object();
        row.set("sweep", "sliced_scan_rate");
        row.set("sliced", is_sliced);
        row.set("wall_seconds", seconds);
        row.set("bytes_per_second", batch_bytes / seconds);
        row.set("speedup", base_seconds / seconds);
        row.set("identical", identical);
        json_rows.push(std::move(row));
    }
    t.print(std::cout);
    std::printf("\nshape: slicing wins outright (only the query's set "
                "bits load plane rows,\nno per-entry decode).  "
                "Survivors, scan statistics, and modeled busy time\n"
                "are bit-identical to the row-major kernel.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string json_path = bench::jsonPathArg(argc, argv);
    fs1::Fs1Kernel kernel = bench::scanConfigArg(argc, argv);
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
        const std::shared_ptr<const crs::StoredPredicate> stored =
            cs.store->predicateVersion(pred);
        std::uint64_t kb_bytes = stored->clauses.image().size();
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
            cs.store->predicateVersion(pred)->clauses.image().size();
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
    slicedScanSweep(kernel, json_rows);

    if (!bench::writeBenchJson(json_path, "scaling",
                               std::move(json_rows)))
        return 1;
    return 0;
}
