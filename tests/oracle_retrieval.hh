/**
 * @file
 * The retrieval oracle shared by the exactness suites: one retrieval
 * computed only from the reference implementations — the row-major FS1
 * scan, the WCS-interpreted FS2 stream, the software PIF matcher, and
 * host unification by re-parsing each candidate's source text — with
 * the server's modeled stage accounting for a clean run (no faults, no
 * caches).  Production serve() must equal it in candidates, answers,
 * filter statistics and every StageBreakdown tick.
 */

#ifndef CLARE_TESTS_ORACLE_RETRIEVAL_HH
#define CLARE_TESTS_ORACLE_RETRIEVAL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "crs/server.hh"
#include "crs/store.hh"
#include "fs1/fs1_engine.hh"
#include "fs2/fs2_engine.hh"
#include "pif/encoder.hh"
#include "term/term_reader.hh"
#include "unify/oracle.hh"
#include "unify/pif_matcher.hh"

namespace clare::oracle {

/** The oracle response for @p goal against one pinned @p stored version. */
inline crs::RetrievalResponse
retrieve(term::SymbolTable &symbols, const crs::PredicateStore &store,
         const crs::StoredPredicate &stored, const crs::CrsConfig &config,
         const term::TermArena &arena, term::TermRef goal,
         crs::SearchMode mode)
{
    using crs::SearchMode;
    crs::RetrievalResponse r;
    r.mode = mode;
    crs::StageBreakdown &stages = r.breakdown;
    const storage::ClauseFile &file = stored.clauses;
    const storage::DiskModel &data_disk = store.dataDisk();

    fs1::Fs1Result fs1;
    if (mode == SearchMode::Fs1Only || mode == SearchMode::TwoStage) {
        fs1::Fs1Engine engine(store.generator(), config.fs1);
        fs1 = engine.searchRowMajor(stored.index,
                                    store.generator().encode(arena, goal));
        r.indexEntriesScanned = fs1.entriesScanned;
        r.fs1Hits = fs1.ordinals.size();
        // With the track cache off a read is access + transfer.
        const storage::DiskModel &disk = store.indexDisk();
        stages.indexTime = disk.accessTime() +
            std::max(disk.transferTime(fs1.bytesScanned), fs1.busyTime);
    }

    pif::EncodedArgs q_args =
        pif::Encoder().encodeArgs(arena, goal, pif::Side::Query);
    const term::PredicateId pred = file.predicate();
    switch (mode) {
      case SearchMode::SoftwareOnly: {
        unify::PifMatcher matcher(unify::PifMatchConfig{
            config.fs2.level, config.fs2.crossBinding});
        Tick scan_cost = 0;
        for (std::size_t i = 0; i < file.clauseCount(); ++i) {
            unify::PifMatchResult m = matcher.match(file.decodeArgs(i),
                                                    q_args);
            scan_cost += config.host.perClause +
                config.host.perOp * m.datapathOps();
            ++r.clausesExamined;
            for (std::size_t o = 0; o < unify::kTueOpCount; ++o)
                r.filterOps[o] += m.opCounts[o];
            if (m.hit)
                r.candidates.push_back(static_cast<std::uint32_t>(i));
        }
        stages.filterTime = data_disk.accessTime() +
            std::max(data_disk.transferTime(file.image().size()),
                     scan_cost);
        break;
      }
      case SearchMode::Fs1Only: {
        r.candidates = fs1.ordinals;
        if (!r.candidates.empty()) {
            const auto &first = file.record(r.candidates.front());
            const auto &last = file.record(r.candidates.back());
            std::uint64_t selected = 0;
            for (std::uint32_t c : r.candidates)
                selected += file.record(c).length;
            Tick sweep = data_disk.accessTime() +
                data_disk.transferTime(last.offset + last.length -
                                       first.offset);
            Tick seeks = data_disk.accessTime() * r.candidates.size() +
                data_disk.transferTime(selected);
            stages.filterTime = std::min(sweep, seeks);
        }
        break;
      }
      case SearchMode::Fs2Only:
      case SearchMode::TwoStage: {
        fs2::Fs2Engine engine(config.fs2);
        engine.setQuery(q_args, pred);
        fs2::Fs2SearchResult f = mode == SearchMode::Fs2Only
            ? engine.searchInterpreted(file, &data_disk,
                                       stored.clauseFileOffset)
            : engine.searchSelectedInterpreted(file, fs1.ordinals,
                                               &data_disk,
                                               stored.clauseFileOffset);
        r.candidates = f.acceptedOrdinals;
        r.clausesExamined = f.clausesExamined;
        r.filterOps = f.ops;
        r.resultOverflow = f.resultOverflow;
        r.satisfiersRequeued = f.satisfiersDropped;
        stages.filterTime = f.elapsed;
        break;
      }
    }

    // Host unification: re-parse every candidate from its source text.
    term::TermReader reader(symbols);
    for (std::uint32_t c : r.candidates)
        if (unify::wouldUnify(arena, goal,
                              reader.parseClause(file.sourceText(c))))
            r.answers.push_back(c);
    stages.hostUnifyTime = config.host.perCandidateUnify *
        r.candidates.size();
    r.elapsed = stages.serviceTime();
    return r;
}

/** Every observable of a retrieval that the oracle models. */
inline void
expectSame(const crs::RetrievalResponse &want,
           const crs::RetrievalResponse &got, const std::string &label)
{
    EXPECT_EQ(want.mode, got.mode) << label;
    EXPECT_EQ(want.candidates, got.candidates) << label;
    EXPECT_EQ(want.answers, got.answers) << label;
    EXPECT_EQ(want.indexEntriesScanned, got.indexEntriesScanned) << label;
    EXPECT_EQ(want.fs1Hits, got.fs1Hits) << label;
    EXPECT_EQ(want.clausesExamined, got.clausesExamined) << label;
    EXPECT_EQ(want.filterOps, got.filterOps) << label;
    EXPECT_EQ(want.resultOverflow, got.resultOverflow) << label;
    EXPECT_EQ(want.satisfiersRequeued, got.satisfiersRequeued) << label;
    EXPECT_EQ(want.breakdown.cacheTime, got.breakdown.cacheTime) << label;
    EXPECT_EQ(want.breakdown.indexTime, got.breakdown.indexTime) << label;
    EXPECT_EQ(want.breakdown.filterTime, got.breakdown.filterTime)
        << label;
    EXPECT_EQ(want.breakdown.hostUnifyTime, got.breakdown.hostUnifyTime)
        << label;
    EXPECT_EQ(want.elapsed, got.elapsed) << label;
    EXPECT_EQ(got.elapsed, got.breakdown.serviceTime()) << label;
}

/**
 * Node-for-node equality of two terms: kinds, values, variable ids
 * and variable names all equal.
 */
inline bool
sameTerm(const term::TermArena &a, term::TermRef ta,
         const term::TermArena &b, term::TermRef tb)
{
    using term::TermKind;
    if (a.kind(ta) != b.kind(tb))
        return false;
    switch (a.kind(ta)) {
      case TermKind::Atom:
        return a.atomSymbol(ta) == b.atomSymbol(tb);
      case TermKind::Int:
        return a.intValue(ta) == b.intValue(tb);
      case TermKind::Float:
        return a.floatId(ta) == b.floatId(tb);
      case TermKind::Var:
        return a.varId(ta) == b.varId(tb) &&
            a.varName(ta) == b.varName(tb);
      case TermKind::Struct:
      case TermKind::List:
        if (a.arity(ta) != b.arity(tb))
            return false;
        if (a.kind(ta) == TermKind::Struct
                ? a.functor(ta) != b.functor(tb)
                : (a.listTail(ta) == term::kNoTerm) !=
                      (b.listTail(tb) == term::kNoTerm))
            return false;
        for (std::uint32_t i = 0; i < a.arity(ta); ++i)
            if (!sameTerm(a, a.arg(ta, i), b, b.arg(tb, i)))
                return false;
        return a.kind(ta) == TermKind::Struct ||
            a.listTail(ta) == term::kNoTerm ||
            sameTerm(a, a.listTail(ta), b, b.listTail(tb));
    }
    return false;
}

/** Node-for-node equality of two clauses' heads and goals. */
inline bool
sameClause(const term::ClauseView &a, const term::ClauseView &b)
{
    if (a.body.size() != b.body.size() ||
        !sameTerm(*a.arena, a.head, *b.arena, b.head))
        return false;
    for (std::size_t g = 0; g < a.body.size(); ++g)
        if (!sameTerm(*a.arena, a.body[g], *b.arena, b.body[g]))
            return false;
    return true;
}

/**
 * True when @p b is @p a with its variables renamed one to one: by
 * identity (VarId), names aside, @p ab and @p ba holding the renaming.
 */
inline bool
variantTerm(const term::TermArena &a, term::TermRef ta,
            const term::TermArena &b, term::TermRef tb,
            std::map<term::VarId, term::VarId> &ab,
            std::map<term::VarId, term::VarId> &ba)
{
    using term::TermKind;
    if (a.kind(ta) != b.kind(tb))
        return false;
    switch (a.kind(ta)) {
      case TermKind::Atom:
        return a.atomSymbol(ta) == b.atomSymbol(tb);
      case TermKind::Int:
        return a.intValue(ta) == b.intValue(tb);
      case TermKind::Float:
        return a.floatId(ta) == b.floatId(tb);
      case TermKind::Var: {
        const term::VarId va = a.varId(ta);
        const term::VarId vb = b.varId(tb);
        return ab.try_emplace(va, vb).first->second == vb &&
            ba.try_emplace(vb, va).first->second == va;
      }
      case TermKind::Struct:
      case TermKind::List:
        if (a.arity(ta) != b.arity(tb))
            return false;
        if (a.kind(ta) == TermKind::Struct
                ? a.functor(ta) != b.functor(tb)
                : (a.listTail(ta) == term::kNoTerm) !=
                      (b.listTail(tb) == term::kNoTerm))
            return false;
        for (std::uint32_t i = 0; i < a.arity(ta); ++i)
            if (!variantTerm(a, a.arg(ta, i), b, b.arg(tb, i), ab, ba))
                return false;
        return a.kind(ta) == TermKind::Struct ||
            a.listTail(ta) == term::kNoTerm ||
            variantTerm(a, a.listTail(ta), b, b.listTail(tb), ab, ba);
    }
    return false;
}

/**
 * True when @p b is a variant of @p a (variantTerm), each clause taken
 * as one term Head :- Body, its goals one conjunction.
 */
inline bool
variantClause(term::SymbolTable &symbols, const term::ClauseView &a,
              const term::ClauseView &b)
{
    auto whole = [&symbols](term::TermArena &into,
                            const term::ClauseView &c) {
        term::TermRef args[] = {into.import(*c.arena, c.head, 0),
                                term::bodyTerm(into, symbols, c, 0)};
        return into.makeStruct(symbols.intern(":-"), args);
    };
    term::TermArena sa;
    term::TermArena sb;
    const term::TermRef ta = whole(sa, a);
    const term::TermRef tb = whole(sb, b);
    std::map<term::VarId, term::VarId> ab;
    std::map<term::VarId, term::VarId> ba;
    return variantTerm(sa, ta, sb, tb, ab, ba);
}

/**
 * Expect every clause of @p table to equal its source text in @p file
 * parsed (the text-parse oracle), variable numbering included.
 */
inline void
expectDecodedAsParsed(term::SymbolTable &symbols,
                      const storage::ClauseFile &file,
                      const term::ClauseTable &table)
{
    ASSERT_EQ(table.size(), file.clauseCount());
    term::TermReader reader(symbols);
    for (std::size_t i = 0; i < file.clauseCount(); ++i) {
        const term::Clause parsed = reader.parseClause(file.sourceText(i));
        EXPECT_TRUE(sameClause(table.view(i), parsed.view()))
            << "clause " << i << ": " << file.sourceText(i);
    }
}

} // namespace clare::oracle

#endif // CLARE_TESTS_ORACLE_RETRIEVAL_HH
