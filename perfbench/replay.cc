#include "replay.hh"

#include <string>

#include "fs2/fs2_engine.hh"
#include "pif/encoder.hh"
#include "term/term_reader.hh"
#include "unify/oracle.hh"
#include "unify/pif_matcher.hh"

namespace perfbench {

RetrievalReplay::RetrievalReplay(term::SymbolTable &symbols,
                                 const crs::PredicateStore &store,
                                 const crs::ClauseRetrievalServer &server)
    : symbols_(symbols), store_(store), server_(server),
      fs1_(store.generator(), server.config().fs1)
{}

ReplayOutcome
RetrievalReplay::run(Tracer &tracer, const term::TermArena &arena,
                     term::TermRef goal)
{
    Span serve(&tracer, "crs.serve");
    ReplayOutcome out;
    const term::PredicateId pred{arena.functor(goal), arena.arity(goal)};
    std::shared_ptr<const crs::StoredPredicate> pinned =
        store_.predicateVersion(pred);
    const crs::StoredPredicate &stored = *pinned;
    const crs::CrsConfig &config = server_.config();
    out.mode = server_.selectMode(arena, goal);
    ++counts_.ops;

    const bool uses_fs1 = out.mode == crs::SearchMode::Fs1Only ||
        out.mode == crs::SearchMode::TwoStage;
    fs1::Fs1Result scan;
    if (uses_fs1) {
        scw::Signature sig;
        {
            Span s(&tracer, "scw.encode");
            sig = store_.generator().encode(arena, goal);
        }
        {
            Span s(&tracer, "fs1.scan");
            scan = fs1_.search(stored.index, stored.sliced.get(),
                               stored.deltaSliced.get(),
                               stored.baseEntries, sig, nullptr, 1);
        }
        counts_.fs1Entries += scan.entriesScanned;
        counts_.fs1Survivors += scan.ordinals.size();
    }

    const storage::ClauseFile &file = stored.clauses;
    switch (out.mode) {
      case crs::SearchMode::Fs1Only:
        out.candidates = std::move(scan.ordinals);
        break;
      case crs::SearchMode::SoftwareOnly: {
        Span s(&tracer, "unify.software_scan");
        pif::EncodedArgs q_args = pif::Encoder().encodeArgs(
            arena, goal, pif::Side::Query);
        unify::PifMatcher matcher(unify::PifMatchConfig{
            config.fs2.level, config.fs2.crossBinding});
        for (std::size_t i = 0; i < file.clauseCount(); ++i) {
            if (matcher.match(file.decodeArgs(i), q_args).hit)
                out.candidates.push_back(static_cast<std::uint32_t>(i));
        }
        break;
      }
      case crs::SearchMode::Fs2Only:
      case crs::SearchMode::TwoStage: {
        Span s(&tracer, "fs2.search");
        fs2::Fs2Engine engine(config.fs2);
        engine.setQuery(pif::Encoder().encodeArgs(arena, goal,
                                                  pif::Side::Query),
                        pred);
        fs2::Fs2SearchResult r = out.mode == crs::SearchMode::Fs2Only
            ? engine.search(file, &store_.dataDisk(),
                            stored.clauseFileOffset)
            : engine.searchSelected(file, scan.ordinals,
                                    &store_.dataDisk(),
                                    stored.clauseFileOffset);
        out.candidates = std::move(r.acceptedOrdinals);
        counts_.fs2Clauses += r.clausesExamined;
        break;
      }
    }

    term::TermReader reader(symbols_);
    for (std::uint32_t ordinal : out.candidates) {
        std::string text;
        {
            Span s(&tracer, "storage.fetch");
            text = file.sourceText(ordinal);
        }
        term::Clause clause;
        {
            Span s(&tracer, "term.parse");
            clause = reader.parseClause(text);
        }
        bool unifies = false;
        {
            Span s(&tracer, "unify.match");
            unifies = unify::wouldUnify(arena, goal, clause);
        }
        if (unifies)
            out.answers.push_back(ordinal);
    }
    counts_.candidates += out.candidates.size();
    counts_.answers += out.answers.size();
    counts_.parses += out.candidates.size();
    return out;
}

bool
sameRetrieval(const ReplayOutcome &replay,
              const crs::RetrievalResponse &served)
{
    return replay.mode == served.mode &&
        replay.candidates == served.candidates &&
        replay.answers == served.answers;
}

void
setRetrievalLayerMetrics(Result &result, const Tracer &tracer,
                         const RetrievalCounts &c)
{
    const double ops = c.ops == 0 ? 1.0 : static_cast<double>(c.ops);
    result.set("crs.candidates_per_op", c.candidates / ops);
    result.set("crs.answers_per_candidate",
               c.candidates == 0 ? 0.0
                                 : static_cast<double>(c.answers) /
                       static_cast<double>(c.candidates));
    result.set("scw.encode_us", meanSpanUs(tracer, "scw.encode"));
    result.set("fs1.scan_us", meanSpanUs(tracer, "fs1.scan"));
    result.set("fs1.entries_per_op", c.fs1Entries / ops);
    result.set("fs1.survivors_per_op", c.fs1Survivors / ops);
    result.set("fs2.search_us", meanSpanUs(tracer, "fs2.search"));
    result.set("fs2.clauses_per_op", c.fs2Clauses / ops);
    result.set("storage.fetch_us", meanSpanUs(tracer, "storage.fetch"));
    result.set("term.parse_us", meanSpanUs(tracer, "term.parse"));
    result.set("term.parses_per_op", c.parses / ops);
    result.set("unify.match_us", meanSpanUs(tracer, "unify.match"));
}

void
ServerCounts::add(obs::MetricsRegistry &metrics)
{
    queries += metrics.counter("crs.queries").value();
    for (std::size_t m = 0; m < crs::kSearchModeCount; ++m) {
        mode[m] += metrics.counter(
            std::string("crs.mode.") +
            crs::searchModeSlug(static_cast<crs::SearchMode>(m))).value();
    }
    cacheHits += metrics.counter("crs.cache.hits").value();
    cacheMisses += metrics.counter("crs.cache.misses").value();
}

void
ServerCounts::subtract(const ServerCounts &earlier)
{
    queries -= earlier.queries;
    for (std::size_t m = 0; m < crs::kSearchModeCount; ++m)
        mode[m] -= earlier.mode[m];
    cacheHits -= earlier.cacheHits;
    cacheMisses -= earlier.cacheMisses;
}

void
ServerCounts::setMetrics(Result &result) const
{
    for (std::size_t m = 0; m < crs::kSearchModeCount; ++m) {
        result.set(std::string("crs.mode_share.") +
                       crs::searchModeSlug(static_cast<crs::SearchMode>(m)),
                   queries > 0 ? mode[m] / queries : 0.0);
    }
    const double consults = cacheHits + cacheMisses;
    result.set("crs.cache.hit_ratio",
               consults > 0 ? cacheHits / consults : 0.0);
}

} // namespace perfbench
