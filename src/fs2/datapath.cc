#include "fs2/datapath.hh"

#include <algorithm>
#include <array>
#include <map>

#include "support/logging.hh"

namespace clare::fs2 {

using unify::TueOp;

std::uint64_t
componentDelayNs(Component c)
{
    switch (c) {
      case Component::DoubleBufferOut: return 20;
      case Component::Sel1:
      case Component::Sel2:
      case Component::Sel3:
      case Component::Sel4:
      case Component::Sel5:
      case Component::Sel6:
        return 20;
      case Component::QueryMemoryRead: return 35;
      case Component::QueryMemoryWrite: return 35;
      case Component::DbMemoryRead: return 25;
      case Component::DbMemoryWrite: return 20;
      case Component::Reg1:
      case Component::Reg2:
      case Component::Reg3:
        return 20;
      case Component::Comparator: return 30;
      case Component::MicroBits: return 0;
    }
    clare_panic("unknown component");
}

const char *
componentName(Component c)
{
    switch (c) {
      case Component::DoubleBufferOut: return "Double Buffer";
      case Component::Sel1: return "Sel1";
      case Component::Sel2: return "Sel2";
      case Component::Sel3: return "Sel3";
      case Component::Sel4: return "Sel4";
      case Component::Sel5: return "Sel5";
      case Component::Sel6: return "Sel6";
      case Component::QueryMemoryRead: return "Query Memory";
      case Component::QueryMemoryWrite: return "Query Memory (write)";
      case Component::DbMemoryRead: return "DB Memory";
      case Component::DbMemoryWrite: return "DB Memory (write)";
      case Component::Reg1: return "Reg1";
      case Component::Reg2: return "Reg2";
      case Component::Reg3: return "Reg3";
      case Component::Comparator: return "Comparator";
      case Component::MicroBits: return "ub13-20";
    }
    return "?";
}

std::uint64_t
Route::delayNs() const
{
    std::uint64_t t = 0;
    for (Component c : legs)
        t += componentDelayNs(c);
    return t;
}

std::string
Route::describe() const
{
    std::string s;
    for (std::size_t i = 0; i < legs.size(); ++i) {
        if (i)
            s += " -> ";
        s += componentName(legs[i]);
    }
    return s.empty() ? "(idle)" : s;
}

std::uint64_t
Cycle::delayNs() const
{
    return std::max(dbRoute.delayNs(), queryRoute.delayNs());
}

std::uint64_t
OperationSpec::executionTimeNs() const
{
    std::uint64_t t = 0;
    for (const Cycle &cycle : cycles)
        t += cycle.delayNs();
    switch (finalAction) {
      case FinalAction::Comparison:
        t += componentDelayNs(Component::Comparator);
        break;
      case FinalAction::DbMemoryWrite:
        t += componentDelayNs(Component::DbMemoryWrite);
        break;
      case FinalAction::QueryMemoryWrite:
        t += componentDelayNs(Component::QueryMemoryWrite);
        break;
    }
    return t;
}

namespace {

using C = Component;

/**
 * The operation specifications transcribed from figures 6-12.  Each
 * cycle's two routes run in parallel; the figures take the critical
 * path per cycle and add the closing comparison or write.
 *
 * A route that is "set in an earlier cycle" (the figures' phrase for
 * a side that holds its value) is represented as an empty route.
 */
const std::map<TueOp, OperationSpec> &
specTable()
{
    static const std::map<TueOp, OperationSpec> table = [] {
        std::map<TueOp, OperationSpec> t;

        // Fig. 6: MATCH.  db: DoubleBuffer->Sel1 (40).
        // query: Sel6->QueryMemory->Sel3 (75).  +comparison = 105.
        t[TueOp::Match] = OperationSpec{
            TueOp::Match, 6,
            {Cycle{Route{{C::DoubleBufferOut, C::Sel1}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Sel3}}}},
            FinalAction::Comparison};

        // Fig. 7: DB_STORE.  db: DoubleBuffer->Sel1->Sel2 (60, address).
        // query: Sel6->QueryMemory->Reg3 (75, data).  +DB write = 95.
        t[TueOp::DbStore] = OperationSpec{
            TueOp::DbStore, 7,
            {Cycle{Route{{C::DoubleBufferOut, C::Sel1, C::Sel2}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Reg3}}}},
            FinalAction::DbMemoryWrite};

        // Fig. 8: QUERY_STORE.  db: DoubleBuffer->Sel1->Sel5->Sel4
        // (80, data).  query: Sel6 (20, address).  +Query write = 115.
        t[TueOp::QueryStore] = OperationSpec{
            TueOp::QueryStore, 8,
            {Cycle{Route{{C::DoubleBufferOut, C::Sel1, C::Sel5, C::Sel4}},
                   Route{{C::Sel6}}}},
            FinalAction::QueryMemoryWrite};

        // Fig. 9: DB_FETCH.  db: DoubleBuffer->DBMemory->Sel1 (65).
        // query: Sel6->QueryMemory->Sel3 (75).  +comparison = 105.
        t[TueOp::DbFetch] = OperationSpec{
            TueOp::DbFetch, 9,
            {Cycle{Route{{C::DoubleBufferOut, C::DbMemoryRead, C::Sel1}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Sel3}}}},
            FinalAction::Comparison};

        // Fig. 10: QUERY_FETCH.  Cycle 1 query route reaches through
        // the DB Memory A port (Sel6->QueryMemory->Sel3->Sel2->DBMem,
        // 120); cycle 2 routes the binding via Sel3 (20); the db side
        // sets up in parallel with cycle 1 (40).  +comparison = 170.
        t[TueOp::QueryFetch] = OperationSpec{
            TueOp::QueryFetch, 10,
            {Cycle{Route{{C::DoubleBufferOut, C::Sel1}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Sel3, C::Sel2,
                          C::DbMemoryRead}}},
             Cycle{Route{},
                   Route{{C::Sel3}}}},
            FinalAction::Comparison};

        // Fig. 11: DB_CROSS_BOUND_FETCH.  Cycle 1: db
        // DoubleBuffer->DBMemory->Reg1 (65) in parallel with query
        // Sel6->QueryMemory->Sel3 (75); cycle 2: db
        // Reg1->DBMemory->Sel1 (65), query holds.  +comparison = 170.
        t[TueOp::DbCrossBoundFetch] = OperationSpec{
            TueOp::DbCrossBoundFetch, 11,
            {Cycle{Route{{C::DoubleBufferOut, C::DbMemoryRead, C::Reg1}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Sel3}}},
             Cycle{Route{{C::Reg1, C::DbMemoryRead, C::Sel1}},
                   Route{}}},
            FinalAction::Comparison};

        // Fig. 12: QUERY_CROSS_BOUND_FETCH.  Cycle 1: db
        // DoubleBuffer->Sel1 (40), query
        // Sel6->QueryMemory->Sel3->Sel2 (95); cycle 2: query
        // DBMemory->Sel3->Sel2 (65); cycle 3: query DBMemory->Sel3
        // (45).  +comparison = 235.
        t[TueOp::QueryCrossBoundFetch] = OperationSpec{
            TueOp::QueryCrossBoundFetch, 12,
            {Cycle{Route{{C::DoubleBufferOut, C::Sel1}},
                   Route{{C::Sel6, C::QueryMemoryRead, C::Sel3, C::Sel2}}},
             Cycle{Route{},
                   Route{{C::DbMemoryRead, C::Sel3, C::Sel2}}},
             Cycle{Route{},
                   Route{{C::DbMemoryRead, C::Sel3}}}},
            FinalAction::Comparison};

        return t;
    }();
    return table;
}

} // namespace

const OperationSpec &
operationSpec(TueOp op)
{
    const auto &table = specTable();
    auto it = table.find(op);
    clare_assert(it != table.end(),
                 "no datapath specification for op %s", tueOpName(op));
    return it->second;
}

std::uint64_t
operationTimeNs(TueOp op)
{
    // Every TUE operation charges its time, so the figures' routes are
    // walked once, not per operation.  Skip has no TUE datapath
    // activity and stays 0.
    static const std::array<std::uint64_t, unify::kTueOpCount> times = [] {
        std::array<std::uint64_t, unify::kTueOpCount> t{};
        for (const auto &[spec_op, spec] : specTable())
            t[static_cast<std::size_t>(spec_op)] = spec.executionTimeNs();
        return t;
    }();
    return times[static_cast<std::size_t>(op)];
}

Tick
operationTime(TueOp op)
{
    return nanoseconds(operationTimeNs(op));
}

double
worstCaseFilterRate()
{
    std::uint64_t worst = 0;
    for (TueOp op : {TueOp::Match, TueOp::DbStore, TueOp::QueryStore,
                     TueOp::DbFetch, TueOp::QueryFetch,
                     TueOp::DbCrossBoundFetch,
                     TueOp::QueryCrossBoundFetch}) {
        worst = std::max(worst, operationTimeNs(op));
    }
    return 1e9 / static_cast<double>(worst);
}

} // namespace clare::fs2
