#include "kb/knowledge_base.hh"

#include "support/logging.hh"
#include "unify/unify.hh"

namespace clare::kb {

KnowledgeBase::KnowledgeBase(KbConfig config)
    : config_(config), reader_(symbols_)
{
}

void
KnowledgeBase::consult(std::string_view text)
{
    if (compiled_)
        clare_fatal("consult after compile(): the disk-resident store "
                    "is immutable in this model");
    for (term::Clause &clause : reader_.parseProgram(text))
        program_.add(std::move(clause));
}

void
KnowledgeBase::add(term::Clause clause)
{
    if (compiled_)
        clare_fatal("add after compile(): the disk-resident store is "
                    "immutable in this model");
    program_.add(std::move(clause));
}

void
KnowledgeBase::loadLibrary()
{
    consult(R"prolog(
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).

        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).

        length([], 0).
        length([_|T], N) :- length(T, M), N is M + 1.

        reverse(L, R) :- reverse_acc(L, [], R).
        reverse_acc([], A, A).
        reverse_acc([H|T], A, R) :- reverse_acc(T, [H|A], R).

        last([X], X).
        last([_|T], X) :- last(T, X).

        nth0(N, L, X) :- nth0_walk(L, 0, N, X).
        nth0_walk([X|_], I, I, X).
        nth0_walk([_|T], I, N, X) :- J is I + 1, nth0_walk(T, J, N, X).

        select(X, [X|T], T).
        select(X, [H|T], [H|R]) :- select(X, T, R).

        sum_list([], 0).
        sum_list([H|T], S) :- sum_list(T, R), S is R + H.

        max_list([X], X).
        max_list([H|T], M) :- max_list(T, N), M is max(H, N).

        min_list([X], X).
        min_list([H|T], M) :- min_list(T, N), M is min(H, N).
    )prolog");
}

void
KnowledgeBase::assertz(term::Clause clause)
{
    term::PredicateId pred = clause.predicate();
    if (compiled_ && isLarge(pred)) {
        if (live_ != nullptr) {
            live_->assertz(clause);
            return;
        }
        clare_fatal("assert on disk-resident predicate %s/%u (the "
                    "compiled store is immutable; call "
                    "enableLiveUpdates() for WAL-backed writes)",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    }
    program_.add(std::move(clause));
}

void
KnowledgeBase::asserta(term::Clause clause)
{
    term::PredicateId pred = clause.predicate();
    if (compiled_ && isLarge(pred)) {
        if (live_ != nullptr) {
            live_->asserta(clause);
            return;
        }
        clare_fatal("assert on disk-resident predicate %s/%u (the "
                    "compiled store is immutable; call "
                    "enableLiveUpdates() for WAL-backed writes)",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    }
    program_.addFront(std::move(clause));
}

bool
KnowledgeBase::retract(const term::TermArena &arena,
                       term::TermRef pattern)
{
    const unify::RetractPattern match(arena, pattern, symbols_);
    const term::PredicateId &pred = match.predicate();
    if (compiled_ && isLarge(pred)) {
        if (live_ != nullptr)
            return live_->retract(arena, pattern).has_value();
        clare_fatal("retract on disk-resident predicate %s/%u (the "
                    "compiled store is immutable; call "
                    "enableLiveUpdates() for WAL-backed writes)",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    }

    for (std::size_t ordinal : program_.clausesOf(pred)) {
        if (match.matches(program_.clause(ordinal).view())) {
            program_.remove(ordinal);
            return true;
        }
    }
    return false;
}

void
KnowledgeBase::compile()
{
    clare_assert(!compiled_, "knowledge base already compiled");

    // Classify predicates by clause count.
    term::Program large_program;
    for (const term::PredicateId &pred : program_.predicates()) {
        const auto &ordinals = program_.clausesOf(pred);
        if (ordinals.size() >= config_.largeThreshold) {
            largePreds_.push_back(pred);
            // Clauses are copied into the store; the in-memory
            // program keeps them too as the source of truth for
            // introspection.
            for (std::size_t i : ordinals)
                large_program.add(program_.clause(i));
        }
    }

    store_ = std::make_unique<crs::PredicateStore>(
        symbols_, scw::CodewordGenerator(config_.scw), config_.disk);
    store_->addProgram(large_program);
    store_->finalize();
    server_ = std::make_unique<crs::ClauseRetrievalServer>(
        symbols_, *store_, config_.crs);
    compiled_ = true;
}

void
KnowledgeBase::enableLiveUpdates(const std::string &wal_path,
                                 std::uint64_t applied_lsn)
{
    clare_assert(compiled_, "enableLiveUpdates() before compile()");
    clare_assert(live_ == nullptr, "live updates already enabled");
    live_ = std::make_unique<crs::LiveStore>(*store_, symbols_,
                                             wal_path, applied_lsn,
                                             config_.crs.faults);
    live_->attachSink(server_.get());
    // Predicates created (or grown) by WAL replay before this call
    // returned are already published; nothing else to do — readers
    // resolve versions per request.
}

bool
KnowledgeBase::isLarge(const term::PredicateId &pred) const
{
    for (const auto &p : largePreds_)
        if (p == pred)
            return true;
    return false;
}

const crs::PredicateStore &
KnowledgeBase::store() const
{
    clare_assert(store_, "store accessed before compile()");
    return *store_;
}

crs::ClauseRetrievalServer &
KnowledgeBase::server()
{
    clare_assert(server_, "server accessed before compile()");
    return *server_;
}

RetrievedClauses
KnowledgeBase::clausesFor(const term::TermArena &q_arena,
                          term::TermRef goal,
                          std::optional<crs::SearchMode> mode)
{
    const term::PredicateId pred = term::predicateOf(q_arena, goal);
    RetrievedClauses out;
    if (compiled_ && isLarge(pred)) {
        crs::RetrievalRequest request;
        request.arena = &q_arena;
        request.goal = goal;
        request.mode = mode;
        crs::RetrievalResponse r = server_->serve(request);
        const crs::StoredPredicate &stored = *r.version;
        out.clauses.reserve(r.candidates.size());
        for (std::uint32_t ordinal : r.candidates)
            out.clauses.push_back(stored.decodedClause(ordinal));
        out.owner = r.version;
        out.retrieval = std::move(r);
        return out;
    }

    // Snapshot the in-memory predicate: resolution may assert or
    // retract while it walks the list.
    auto snapshot = std::make_shared<term::ClauseTable>();
    for (std::size_t i : program_.clausesOf(pred))
        snapshot->add(program_.clause(i));
    for (std::size_t i = 0; i < snapshot->size(); ++i)
        out.clauses.push_back(snapshot->view(i));
    out.owner = std::move(snapshot);
    return out;
}

} // namespace clare::kb
