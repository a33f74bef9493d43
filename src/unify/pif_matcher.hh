/**
 * @file
 * Partial test unification over PIF item streams — the functional
 * model of what the FS2 Test Unification Engine computes.
 *
 * This matcher consumes the compiled argument stream of a database
 * clause head and of a query goal, applying the figure-1 algorithm:
 *
 *  - simple terms compare by tag and content (one MATCH),
 *  - in-line complex terms compare headers then first-level elements,
 *  - pointer complex terms compare headers only,
 *  - variables store on first occurrence and fetch-then-match on
 *    subsequent occurrences, following cross-binding chains to the
 *    ultimate association,
 *  - anonymous variables skip.
 *
 * It is a conservative filter: a miss guarantees full unification
 * would fail; a hit may still be a false drop.  Alongside the verdict
 * it returns the exact TUE operation counts, which drive the timing
 * model (Table 1 execution times) in the FS2 engine.
 *
 * The level parameter (1-3) selects the comparison depth studied in
 * section 2.2; the hardware configuration is level 3 with
 * cross-binding checks on.
 */

#ifndef CLARE_UNIFY_PIF_MATCHER_HH
#define CLARE_UNIFY_PIF_MATCHER_HH

#include "pif/encoder.hh"
#include "unify/pair_engine.hh"
#include "unify/tue_op.hh"

namespace clare::unify {

/** Configuration of the stream matcher (level must be 1, 2 or 3). */
struct PifMatchConfig
{
    int level = 3;
    bool crossBinding = true;
};

/** Verdict plus operation counts for one clause/query pair. */
struct PifMatchResult
{
    bool hit = false;
    TueOpCounts opCounts{};

    std::uint64_t
    count(TueOp op) const
    {
        return opCounts[static_cast<std::size_t>(op)];
    }

    /** Total TUE datapath operations (excludes Skip). */
    std::uint64_t datapathOps() const;
};

/** Stream-level partial test unification (the FS2 functional model). */
class PifMatcher
{
  public:
    explicit PifMatcher(PifMatchConfig config = {});

    /**
     * Match a compiled clause-head argument stream against a compiled
     * query argument stream.  The two streams must have the same
     * argument count (same predicate arity).
     */
    PifMatchResult match(const pif::EncodedArgs &db,
                         const pif::EncodedArgs &query);

    const PifMatchConfig &config() const { return config_; }

  private:
    PifMatchConfig config_;
    /** Binding cells, reset (not reallocated) for every match. */
    PairEngine engine_;
};

} // namespace clare::unify

#endif // CLARE_UNIFY_PIF_MATCHER_HH
