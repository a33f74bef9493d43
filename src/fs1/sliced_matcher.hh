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
 * width.  Survivors are extracted in entry order, so the hit list is
 * bit-identical to the sequential row-major scan, including over
 * partial shard ranges (the first and last words of a range are edge
 * masked).
 */

#ifndef CLARE_FS1_SLICED_MATCHER_HH
#define CLARE_FS1_SLICED_MATCHER_HH

#include <cstdint>
#include <vector>

#include "fs1/kernels.hh"
#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"

namespace clare::fs1 {

/** Word-parallel scanner over a BitSlicedIndex. */
class SlicedMatcher
{
  public:
    /**
     * @param kernel block kernel to evaluate fields with; Auto picks
     *        the widest ISA the host supports.  Every kernel yields
     *        bit-identical hits, order, and wordOps (the counter
     *        models 64-bit plane operations regardless of how many
     *        the host fuses per vector op).
     */
    explicit SlicedMatcher(Fs1Kernel kernel = Fs1Kernel::Auto);

    /** The kernel scans actually run through (Auto resolved). */
    Fs1Kernel kernel() const { return kernel_; }

    /** Survivors of one query, in entry order. */
    struct Hits
    {
        std::vector<std::uint32_t> clauseOffsets;
        std::vector<std::uint32_t> ordinals;
        /** 64-bit plane operations performed (activity counter). */
        std::uint64_t wordOps = 0;
    };

    /**
     * Scan a contiguous entry range for one query.  Exactly the
     * entries PlaMatcher accepts survive, in the same order.
     */
    Hits scanRange(const scw::BitSlicedIndex &plane,
                   const scw::Signature &query,
                   const scw::EntryRange &range);

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
     * Evaluate one block of words for one plan into surv_ (edge words
     * pre-masked by the caller), then extract survivors into @p out.
     */
    void scanBlock(const scw::BitSlicedIndex &plane,
                   const QueryPlan &plan, std::size_t word_begin,
                   std::size_t word_count, std::uint64_t first_mask,
                   std::size_t last_word, std::uint64_t last_mask,
                   Hits &out);

    /** Resolved kernel identity (never Auto after construction). */
    Fs1Kernel kernel_;
    /** The block function of kernel_. */
    BlockKernelFn kernelFn_;
    /** Survivor-word scratch, reused across blocks. */
    std::vector<std::uint64_t> surv_;
};

} // namespace clare::fs1

#endif // CLARE_FS1_SLICED_MATCHER_HH
