#include "fs1/sliced_matcher.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace clare::fs1 {

namespace {

/**
 * Words evaluated per block (16 K entries).  Small enough that the
 * survivor scratch stays cache-resident while every touched plane row
 * is folded into it, large enough that the loop overhead amortizes.
 */
constexpr std::size_t kBlockWords = 256;

/**
 * Words one step of the kernel's main loop folds.  Each step keeps
 * its words in a fixed-size local array, so the plane-row ANDs are
 * independent lanes the compiler can put in vector registers.
 */
constexpr std::size_t kLanes = 8;

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

/**
 * One field's survivor update over a run of plane words:
 *
 *     surv[j] &= (AND over t of planes[t][word_begin + j])
 *                | mask[word_begin + j]          for j in [0, count)
 *
 * @p surv is indexed from 0, the plane rows from @p word_begin, and
 * @p nplanes >= 1.  The main loop folds kLanes words per step, every
 * plane row into all of them before the next row; each step loads all
 * its words before it stores any, so the lanes vectorize without an
 * aliasing check.  A scalar loop finishes the last word_count % kLanes
 * words.
 */
void
foldField(std::uint64_t *surv, const std::uint64_t *const *planes,
          std::size_t nplanes, const std::uint64_t *mask,
          std::size_t word_begin, std::size_t word_count)
{
    std::size_t j = 0;
    for (; j + kLanes <= word_count; j += kLanes) {
        const std::size_t w = word_begin + j;
        std::uint64_t acc[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] = planes[0][w + l];
        for (std::size_t t = 1; t < nplanes; ++t)
            for (std::size_t l = 0; l < kLanes; ++l)
                acc[l] &= planes[t][w + l];
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] = surv[j + l] & (acc[l] | mask[w + l]);
        for (std::size_t l = 0; l < kLanes; ++l)
            surv[j + l] = acc[l];
    }
    for (; j < word_count; ++j) {
        const std::size_t w = word_begin + j;
        std::uint64_t acc = planes[0][w];
        for (std::size_t t = 1; t < nplanes; ++t)
            acc &= planes[t][w];
        surv[j] &= acc | mask[w];
    }
}

} // namespace

SlicedMatcher::QueryPlan
SlicedMatcher::buildPlan(const scw::BitSlicedIndex &plane,
                         const scw::Signature &query)
{
    clare_assert(query.fields.size() == plane.fields(),
                 "query signature layout mismatch: %zu fields for a "
                 "%u-field plane", query.fields.size(), plane.fields());
    QueryPlan plan;
    for (std::uint32_t f = 0; f < plane.fields(); ++f) {
        const BitVec &code = query.fields[f];
        FieldPlan field;
        for (std::uint32_t b = 0; b < plane.fieldBits(); ++b)
            if (code.test(b))
                field.planes.push_back(plane.codePlane(f, b));
        // A field with no query bits constrains nothing (the empty
        // code is a subset of every clause code), exactly like the
        // behavioural rule — its planes are never loaded.
        if (field.planes.empty())
            continue;
        field.mask = plane.maskPlane(f);
        plan.fields.push_back(std::move(field));
    }
    return plan;
}

void
SlicedMatcher::scanBlock(const scw::BitSlicedIndex &plane,
                         const QueryPlan &plan, std::uint64_t *surv,
                         std::size_t word_begin, std::size_t word_count,
                         Hits &out)
{
    std::fill_n(surv, word_count, kAllOnes);
    // The final word of the plane has slack bits past the last entry;
    // a query with no active field would let them survive.
    const std::size_t tail = plane.entryCount() % 64;
    if (tail != 0 && word_begin + word_count == plane.planeWords())
        surv[word_count - 1] = kAllOnes >> (64 - tail);

    for (const FieldPlan &field : plan.fields) {
        foldField(surv, field.planes.data(), field.planes.size(),
                  field.mask, word_begin, word_count);
        // The activity counter models 64-bit plane operations: the
        // modeled hardware touches every word of every plane row,
        // however many words the host folds per instruction.
        out.wordOps += static_cast<std::uint64_t>(word_count) *
            (field.planes.size() + 1);
    }

    // Size the hit lists once per block, so a scan's allocations do
    // not grow with its survivor count.
    std::size_t hits = out.ordinals.size();
    for (std::size_t j = 0; j < word_count; ++j)
        hits += static_cast<std::size_t>(std::popcount(surv[j]));
    out.clauseOffsets.reserve(hits);
    out.ordinals.reserve(hits);
    for (std::size_t j = 0; j < word_count; ++j) {
        std::uint64_t w = surv[j];
        const std::size_t base = (word_begin + j) * 64;
        while (w != 0) {
            const std::size_t e =
                base + static_cast<std::size_t>(std::countr_zero(w));
            out.clauseOffsets.push_back(plane.clauseOffset(e));
            out.ordinals.push_back(plane.ordinal(e));
            w &= w - 1;
        }
    }
}

SlicedMatcher::Hits
SlicedMatcher::scan(const scw::BitSlicedIndex &plane,
                    const scw::Signature &query)
{
    Hits out;
    if (plane.entryCount() == 0)
        return out;
    const QueryPlan plan = buildPlan(plane, query);
    std::uint64_t surv[kBlockWords];
    const std::size_t words = plane.planeWords();
    for (std::size_t bw = 0; bw < words; bw += kBlockWords)
        scanBlock(plane, plan, surv, bw, std::min(kBlockWords, words - bw),
                  out);
    return out;
}

} // namespace clare::fs1
