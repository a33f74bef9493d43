/**
 * @file
 * The paper's motivating scenario: a family knowledge base with the
 * married_couple predicate, queried with the shared-variable query
 * married_couple(Same_surname, Same_surname) that defeats codeword
 * indexing (section 2.1) and is rescued by FS2's cross-binding checks
 * (section 2.2).
 *
 * The example drives the CLARE board through the documented host
 * sequence and compares all four CRS search modes on the pathological
 * query.
 */

#include <cstdio>

#include "clare/board.hh"
#include "crs/server.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"

int
main()
{
    using namespace clare;
    setQuiet(true);

    // A synthetic family KB: ~1000 couples, ~2% of them "reflexive"
    // (the true answers), parent/person facts and ancestor rules.
    term::SymbolTable sym;
    workload::KbGenerator generator(sym);
    term::Program program = generator.generateFamily(1000, /*seed=*/11);

    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    crs::ClauseRetrievalServer server(sym, store);

    term::PredicateId married{sym.lookup("married_couple"), 2};
    std::printf("family KB: %zu clauses total, %zu married_couple "
                "facts (%llu KB on disk)\n\n",
                program.size(), program.clausesOf(married).size(),
                static_cast<unsigned long long>(
                    store.dataBytes() / 1024));

    // The pathological query.
    term::TermReader reader(sym);
    term::ParsedTerm query =
        reader.parseTerm("married_couple(Same_surname, Same_surname)");

    std::printf("query: married_couple(Same_surname, Same_surname)\n");
    std::printf("%-16s %12s %9s %9s %12s\n", "mode", "candidates",
                "answers", "FD rate", "elapsed");
    for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                 crs::SearchMode::Fs1Only,
                                 crs::SearchMode::Fs2Only,
                                 crs::SearchMode::TwoStage}) {
        crs::RetrievalRequest request;
        request.arena = &query.arena;
        request.goal = query.root;
        request.mode = mode;
        crs::RetrievalResponse r = server.serve(request);
        std::printf("%-16s %12zu %9zu %9.3f %9.2f ms\n",
                    crs::searchModeName(mode), r.candidates.size(),
                    r.answers.size(), r.falseDropRate(),
                    static_cast<double>(r.elapsed) / kMillisecond);
    }
    std::printf("\nCRS auto-selects: %s (shared variables are "
                "invisible to the codeword index)\n\n",
                crs::searchModeName(
                    server.selectMode(query.arena, query.root)));

    // Drive the board directly, the way the device driver would.
    const std::shared_ptr<const crs::StoredPredicate> pinned =
        store.predicateVersion(married);
    const crs::StoredPredicate &stored = *pinned;
    engine::ClareBoard board{scw::CodewordGenerator{}};
    engine::ClareDriver driver(board);
    fs2::Fs2SearchResult hw = driver.fs2Search(query.arena, query.root,
                                               stored.clauses);
    std::printf("raw FS2 board search: %llu clauses examined, %u "
                "satisfiers captured,\ncontrol register b7=%d, TUE busy "
                "%.2f ms, %llu microinstructions\n",
                static_cast<unsigned long long>(hw.clausesExamined),
                hw.satisfiers,
                (board.read8(engine::kVmeWindowBase) & 0x80) ? 1 : 0,
                static_cast<double>(hw.tueBusyTime) / kMillisecond,
                static_cast<unsigned long long>(hw.microInstructions));

    std::printf("\nfirst few satisfiers (Read Result mode):\n");
    for (std::uint32_t i = 0; i < hw.satisfiers && i < 5; ++i) {
        std::printf("  %s\n",
                    stored.clauses.sourceText(
                        hw.acceptedOrdinals[i]).c_str());
    }
    return 0;
}
