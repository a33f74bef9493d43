/**
 * @file
 * Word-parallel FS1 matching over a bit-sliced index plane.
 *
 * Where the structural PlaMatcher decides one entry at a time, this
 * matcher evaluates the same SCW+MB rule for 64 entries per 64-bit
 * word operation.  Per field f with a non-empty query code Q_f:
 *
 *     survivors &= (AND over b in Q_f of plane[f][b])  |  mask[f]
 *
 * Fields whose query code is empty impose no constraint — their
 * planes are never touched, which is where the asymptotic win comes
 * from: work scales with the query's set bits, not the signature
 * width.  A scan covers a whole plane, from entry 0; the slack bits of
 * the final word past the last entry are masked off.  Survivors are
 * extracted in entry order, so the hit list is bit-identical to the
 * sequential row-major scan.
 */

#ifndef CLARE_FS1_SLICED_MATCHER_HH
#define CLARE_FS1_SLICED_MATCHER_HH

#include <cstdint>
#include <vector>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"

namespace clare::fs1 {

/** Word-parallel scanner over a BitSlicedIndex. */
class SlicedMatcher
{
  public:
    /** Survivors of one query, in entry order. */
    struct Hits
    {
        std::vector<std::uint32_t> clauseOffsets;
        std::vector<std::uint32_t> ordinals;
        /** 64-bit plane operations performed (activity counter). */
        std::uint64_t wordOps = 0;
    };

    /**
     * Scan every entry of @p plane for one query.  Exactly the entries
     * PlaMatcher accepts survive, in the same order.
     */
    static Hits scan(const scw::BitSlicedIndex &plane,
                     const scw::Signature &query);

  private:
    /** One query's touched rows: per active field, its plane rows. */
    struct FieldPlan
    {
        const std::uint64_t *mask = nullptr;
        std::vector<const std::uint64_t *> planes;
    };
    struct QueryPlan
    {
        std::vector<FieldPlan> fields;
    };

    static QueryPlan buildPlan(const scw::BitSlicedIndex &plane,
                               const scw::Signature &query);

    /**
     * Evaluate one block of words for one plan into the survivor
     * scratch @p surv, then extract survivors into @p out.
     */
    static void scanBlock(const scw::BitSlicedIndex &plane,
                          const QueryPlan &plan, std::uint64_t *surv,
                          std::size_t word_begin, std::size_t word_count,
                          Hits &out);
};

} // namespace clare::fs1

#endif // CLARE_FS1_SLICED_MATCHER_HH
