/**
 * @file
 * The single-item-pair matching core of partial test unification.
 *
 * Both the stream-level functional matcher (PifMatcher) and the FS2
 * Test Unification Engine hardware model execute exactly this state
 * machine for each (database item, query item) pair: variable binding
 * cells, first/subsequent store-and-fetch, cross-binding resolution to
 * the ultimate association, and level-limited header comparison.
 * Sharing the core guarantees the two layers agree item for item.
 *
 * Each call reports the TUE operations it performs through a sink so
 * callers can account time (Table 1) and operation mixes.
 */

#ifndef CLARE_UNIFY_PAIR_ENGINE_HH
#define CLARE_UNIFY_PAIR_ENGINE_HH

#include <memory>
#include <type_traits>
#include <vector>

#include "pif/pif_item.hh"
#include "unify/tue_op.hh"

namespace clare::unify {

/**
 * Callback receiving each hardware operation as it is performed.  A
 * non-owning function reference (object pointer plus call thunk), so
 * handing a capturing lambda to matchPair() never allocates, however
 * much it captures.  Like std::function_ref it must not outlive the
 * callable it was built from: pass it down, never store it.
 */
class OpSink
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, OpSink> &&
                 std::is_invocable_v<F &, TueOp>)
    OpSink(F &&f)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, TueOp op) {
              (*static_cast<std::remove_reference_t<F> *>(obj))(op);
          })
    {
    }

    void operator()(TueOp op) const { call_(obj_, op); }

  private:
    void *obj_;
    void (*call_)(void *, TueOp);
};

/**
 * Header-level comparison of two non-variable items at a matching
 * level (1-3).  This is all the hardware comparator can decide from
 * single items; element walking is the caller's job.
 */
bool compareItemHeaders(int level, const pif::PifItem &a,
                        const pif::PifItem &b);

/**
 * List/list header compatibility at a matching level: level 3 applies
 * the counter-visible arity rules (terminated lengths equal; an
 * unterminated prefix must fit a terminated partner), levels 1-2
 * accept any list pair.  Saturated pointer arity fields weaken the
 * checks.
 */
bool compareListHeaders(int level, const pif::PifItem &a,
                        const pif::PifItem &b);

/**
 * Variable binding cells and the pair-matching state machine, reset
 * per clause.
 */
class PairEngine
{
  public:
    PairEngine(int level, bool cross_binding);

    /** Reset all cells for a new clause (and, if needed, resize). */
    void reset(std::uint32_t db_slots, std::uint32_t query_slots);

    /**
     * Match one (db item, query item) pair.  Items must be single
     * items (an in-line complex *header* is fine; its elements are the
     * caller's to walk).  Reports ops via @p sink.
     *
     * @return true if the pair passes (possibly conservatively).
     */
    bool matchPair(const pif::PifItem &db_item,
                   const pif::PifItem &q_item, const OpSink &sink);

    int level() const { return level_; }
    bool crossBinding() const { return crossBinding_; }

  private:
    struct Cell
    {
        bool bound = false;
        pif::PifItem value{};
    };

    int level_;
    bool crossBinding_;
    std::vector<Cell> dbCells_;
    std::vector<Cell> qCells_;

    Cell &cellFor(const pif::PifItem &item);
    bool ultimate(pif::PifItem item, pif::PifItem &out);
    bool matchDbVar(const pif::PifItem &db_item,
                    const pif::PifItem &q_item, const OpSink &sink);
    bool matchQueryVar(const pif::PifItem &db_item,
                       const pif::PifItem &q_item, const OpSink &sink);
};

} // namespace clare::unify

#endif // CLARE_UNIFY_PAIR_ENGINE_HH
