/**
 * @file
 * Structural model of the FS1 index-matching hardware.
 *
 * The paper (and its TR 88/2 companion) describes FS1 as "standard
 * PLAs and MSI components" performing the codeword match in parallel
 * as index entries stream past.  This model makes that structure
 * explicit:
 *
 *  - a bank of *comparand registers* holds the query signature
 *    (per-field code bits) loaded in Set Query mode;
 *  - one *field match cell* per argument field computes, fully in
 *    parallel, `(Q_f & ~C_f) == 0  OR  clause-mask_f` from the entry
 *    bytes presented on the input bus — an AND-OR plane in the real
 *    hardware;
 *  - a *match reduction tree* ANDs the per-field outcomes into the
 *    single HIT line that gates the address latch.
 *
 * Because every field cell sees the entry simultaneously, an entry is
 * decided in one pass regardless of width: the scan is strictly
 * streaming-rate-bound, which is what lets the prototype reach
 * 4.5 MB/s.  The model counts field-cell evaluations and latch
 * operations so the structural activity is observable, and it must
 * agree exactly with the behavioural SCW+MB match rule (property
 * tested).
 */

#ifndef CLARE_FS1_PLA_MATCHER_HH
#define CLARE_FS1_PLA_MATCHER_HH

#include <cstdint>
#include <vector>

#include "scw/codeword.hh"
#include "scw/index_file.hh"

namespace clare::fs1 {

/** One per-field AND-OR match cell. */
class FieldMatchCell
{
  public:
    /** Load the comparand (query) code for this field. */
    void loadComparand(const BitVec &query_code);

    /**
     * Evaluate the cell against a clause entry's field.
     *
     * @param clause_code the entry's field code bits
     * @param clause_masked the entry's mask bit for this field
     * @return the cell's match line
     */
    bool evaluate(const BitVec &clause_code, bool clause_masked) const;

    const BitVec &comparand() const { return comparand_; }

  private:
    BitVec comparand_;
};

/** The comparand registers + field cells + reduction tree. */
class PlaMatcher
{
  public:
    explicit PlaMatcher(scw::CodewordGenerator generator);

    /** Set Query mode: load the query signature's comparands. */
    void setQuery(const scw::Signature &query);

    /**
     * Present one index entry to the match plane.
     *
     * @return the HIT line (all field cells matched)
     */
    bool present(const scw::Signature &clause);

    /**
     * Stream a whole secondary file, collecting matching entries.
     * Equivalent to Fs1Engine::search but driven through the
     * structural plane.  Entries are decoded into one scratch
     * register hoisted out of the loop, so the streaming path
     * performs no per-entry allocation (only hits are copied out) —
     * which keeps this oracle a fair scan-rate baseline for the
     * bit-sliced path.
     */
    std::vector<scw::IndexEntry>
    streamFile(const scw::SecondaryFile &index);

    /** Deprecated name for streamFile(). */
    std::vector<scw::IndexEntry>
    scan(const scw::SecondaryFile &index)
    {
        return streamFile(index);
    }

    /** Field-cell evaluations performed (activity counter). */
    std::uint64_t cellEvaluations() const { return cellEvaluations_; }

    /** Entries whose HIT line fired (address latches). */
    std::uint64_t addressLatches() const { return addressLatches_; }

    const scw::CodewordGenerator &generator() const { return generator_; }

  private:
    scw::CodewordGenerator generator_;
    std::vector<FieldMatchCell> cells_;
    bool queryLoaded_ = false;
    std::uint64_t cellEvaluations_ = 0;
    std::uint64_t addressLatches_ = 0;
};

} // namespace clare::fs1

#endif // CLARE_FS1_PLA_MATCHER_HH
