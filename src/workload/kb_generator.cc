#include "workload/kb_generator.hh"

#include "support/logging.hh"

namespace clare::workload {

using term::TermArena;
using term::TermRef;

KbSpec
KbSpec::warren(std::uint32_t facts_per_predicate,
               std::uint32_t predicates)
{
    // Warren's profile: 3000 predicates, 30000 rules, 3000000 facts —
    // i.e. ~1000 facts and ~10 rules per predicate, so a rule fraction
    // of about 1%.
    KbSpec spec;
    spec.predicates = predicates;
    spec.clausesPerPredicate = facts_per_predicate;
    spec.ruleFraction = 0.01;
    spec.varProb = 0.02;
    spec.structProb = 0.2;
    spec.listProb = 0.05;
    spec.arityMin = 2;
    spec.arityMax = 5;
    spec.atomVocabulary = 500;
    return spec;
}

TermRef
KbGenerator::makeArg(TermArena &arena, const KbSpec &spec, Rng &rng,
                     std::uint32_t &next_var,
                     std::vector<term::VarId> &used_vars, int depth)
{
    double roll = rng.uniform();

    if (roll < spec.varProb) {
        // A variable argument; possibly a reuse of an earlier one.
        if (!used_vars.empty() && rng.chance(spec.sharedVarProb)) {
            term::VarId v = rng.pick(used_vars);
            return arena.makeVar(v, symbols_.intern(
                "V" + std::to_string(v)));
        }
        term::VarId v = next_var++;
        used_vars.push_back(v);
        return arena.makeVar(v, symbols_.intern("V" + std::to_string(v)));
    }
    roll -= spec.varProb;

    if (depth < 2 && roll < spec.structProb) {
        std::uint32_t arity = static_cast<std::uint32_t>(
            rng.range(1, spec.structArityMax));
        term::SymbolId functor = symbols_.intern(
            "f" + std::to_string(rng.below(spec.atomVocabulary / 4 + 1)));
        std::vector<TermRef> args;
        for (std::uint32_t i = 0; i < arity; ++i)
            args.push_back(makeArg(arena, spec, rng, next_var, used_vars,
                                   depth + 1));
        return arena.makeStruct(functor, args);
    }
    roll -= spec.structProb;

    if (depth < 2 && roll < spec.listProb) {
        std::uint32_t len = static_cast<std::uint32_t>(
            rng.range(1, spec.listLenMax));
        std::vector<TermRef> elems;
        for (std::uint32_t i = 0; i < len; ++i)
            elems.push_back(makeArg(arena, spec, rng, next_var,
                                    used_vars, depth + 1));
        return arena.makeList(elems);
    }
    roll -= spec.listProb;

    if (roll < spec.intProb)
        return arena.makeInt(static_cast<std::int64_t>(
            rng.below(spec.integerRange)));
    roll -= spec.intProb;

    if (roll < spec.floatProb)
        return arena.makeFloat(symbols_.internFloat(
            static_cast<double>(rng.below(1000)) / 8.0));

    return arena.makeAtom(symbols_.intern(
        "a" + std::to_string(rng.below(spec.atomVocabulary))));
}

void
KbGenerator::generatePredicate(term::Program &program, const KbSpec &spec,
                               std::uint32_t index, Rng &rng)
{
    std::string functor_name = "p" + std::to_string(index);
    term::SymbolId functor = symbols_.intern(functor_name);
    std::uint32_t arity = static_cast<std::uint32_t>(
        rng.range(spec.arityMin, spec.arityMax));

    for (std::uint32_t c = 0; c < spec.clausesPerPredicate; ++c) {
        TermArena arena;
        std::uint32_t next_var = 0;
        std::vector<term::VarId> used_vars;
        std::vector<TermRef> args;
        for (std::uint32_t a = 0; a < arity; ++a)
            args.push_back(makeArg(arena, spec, rng, next_var, used_vars,
                                   0));
        TermRef head = arena.makeStruct(functor, args);

        std::vector<TermRef> body;
        if (rng.chance(spec.ruleFraction)) {
            // A one-goal body calling the same predicate with fresh
            // variables (rule heads share the head's variables too).
            std::vector<TermRef> goal_args;
            for (std::uint32_t a = 0; a < arity; ++a) {
                term::VarId v = next_var++;
                goal_args.push_back(arena.makeVar(
                    v, symbols_.intern("B" + std::to_string(v))));
            }
            body.push_back(arena.makeStruct(functor, goal_args));
        }
        program.add(term::Clause(std::move(arena), head,
                                 std::move(body)));
    }
}

term::Program
KbGenerator::generate(const KbSpec &spec)
{
    term::Program program;
    program.reserve(static_cast<std::size_t>(spec.predicates) *
                    spec.clausesPerPredicate);
    Rng rng(spec.seed);
    for (std::uint32_t p = 0; p < spec.predicates; ++p)
        generatePredicate(program, spec, p, rng);
    return program;
}

term::Program
KbGenerator::generateFamily(std::uint32_t families, std::uint64_t seed)
{
    term::Program program;
    Rng rng(seed);
    term::SymbolId married = symbols_.intern("married_couple");
    term::SymbolId parent = symbols_.intern("parent");
    term::SymbolId person = symbols_.intern("person");

    auto name = [&](const char *stem, std::uint32_t i) {
        return symbols_.intern(std::string(stem) + std::to_string(i));
    };

    for (std::uint32_t f = 0; f < families; ++f) {
        term::SymbolId husband = name("h", f);
        term::SymbolId wife = name("w", f);

        {
            TermArena arena;
            TermRef args[] = {arena.makeAtom(husband),
                              arena.makeAtom(wife)};
            TermRef head = arena.makeStruct(married, args);
            program.add(term::Clause(std::move(arena), head, {}));
        }
        // A small fraction of "couples" share a single entry — the
        // married_couple(S,S) query's true answers.
        if (rng.chance(0.02)) {
            TermArena arena;
            term::SymbolId solo = name("s", f);
            TermRef args[] = {arena.makeAtom(solo), arena.makeAtom(solo)};
            TermRef head = arena.makeStruct(married, args);
            program.add(term::Clause(std::move(arena), head, {}));
        }

        std::uint32_t children = static_cast<std::uint32_t>(
            rng.range(0, 3));
        for (std::uint32_t c = 0; c < children; ++c) {
            term::SymbolId child = symbols_.intern(
                "c" + std::to_string(f) + "_" + std::to_string(c));
            for (term::SymbolId par : {husband, wife}) {
                TermArena arena;
                TermRef args[] = {arena.makeAtom(par),
                                  arena.makeAtom(child)};
                TermRef head = arena.makeStruct(parent, args);
                program.add(term::Clause(std::move(arena), head, {}));
            }
            TermArena arena;
            TermRef arg = arena.makeAtom(child);
            TermRef head = arena.makeStruct(person,
                                            std::span(&arg, 1));
            program.add(term::Clause(std::move(arena), head, {}));
        }
    }

    // ancestor/2 rules: the classic mixed relation (rules in the same
    // predicate space as disk-resident facts elsewhere).
    term::SymbolId ancestor = symbols_.intern("ancestor");
    {
        TermArena arena;
        TermRef x = arena.makeVar(0, symbols_.intern("X"));
        TermRef y = arena.makeVar(1, symbols_.intern("Y"));
        TermRef head_args[] = {x, y};
        TermRef head = arena.makeStruct(ancestor, head_args);
        TermRef x2 = arena.makeVar(0, symbols_.intern("X"));
        TermRef y2 = arena.makeVar(1, symbols_.intern("Y"));
        TermRef goal_args[] = {x2, y2};
        TermRef goal = arena.makeStruct(parent, goal_args);
        program.add(term::Clause(std::move(arena), head, {goal}));
    }
    {
        TermArena arena;
        TermRef x = arena.makeVar(0, symbols_.intern("X"));
        TermRef y = arena.makeVar(1, symbols_.intern("Y"));
        TermRef z = arena.makeVar(2, symbols_.intern("Z"));
        TermRef head_args[] = {x, y};
        TermRef head = arena.makeStruct(ancestor, head_args);
        TermRef g1_args[] = {arena.makeVar(0, symbols_.intern("X")),
                             arena.makeVar(2, symbols_.intern("Z"))};
        TermRef g1 = arena.makeStruct(parent, g1_args);
        TermRef g2_args[] = {arena.makeVar(2, symbols_.intern("Z")),
                             arena.makeVar(1, symbols_.intern("Y"))};
        TermRef g2 = arena.makeStruct(ancestor, g2_args);
        program.add(term::Clause(std::move(arena), head, {g1, g2}));
        (void)y;
        (void)z;
    }
    return program;
}

} // namespace clare::workload
