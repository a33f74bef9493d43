/**
 * @file
 * The complete second stage filter (FS2), integrating the Writable
 * Control Store, map ROM, Test Unification Engine, Double Buffer and
 * Result Memory behind the host-visible protocol of section 3:
 *
 *   1. Microprogramming mode — the query is translated into a
 *      microprogram and loaded into the WCS.
 *   2. Set Query mode — the compiled query arguments are written into
 *      the Query Memory.
 *   3. Search mode — clause records stream from the (modeled) disk
 *      through the Double Buffer; the TUE examines each; satisfiers
 *      are captured in the Result Memory.  The host runs the
 *      microprogram as AOT-compiled routines; the WCS interpreter
 *      stays as the oracle they are checked against.
 *   4. Read Result mode — the captured satisfiers are read back.
 *
 * The engine reports both functional results (accepted ordinals,
 * operation counts) and timing (TUE busy time, disk-bound elapsed
 * time, stalls, overruns).
 */

#ifndef CLARE_FS2_FS2_ENGINE_HH
#define CLARE_FS2_FS2_ENGINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "fs2/compiled_routines.hh"
#include "fs2/double_buffer.hh"
#include "fs2/result_memory.hh"
#include "fs2/tue.hh"
#include "fs2/wcs.hh"
#include "pif/encoder.hh"
#include "storage/clause_file.hh"
#include "storage/disk_model.hh"
#include "support/obs.hh"
#include "term/clause.hh"
#include "unify/tue_op.hh"

namespace clare::fs2 {

/** FS2 configuration. */
struct Fs2Config
{
    int level = 3;                  ///< matching level (paper: 3)
    bool crossBinding = true;       ///< cross-binding checks (added)
    Tick sequencerOverhead = 0;     ///< per-microinstruction time
    std::uint32_t doubleBufferBank = 8192;
    std::uint32_t resultMemoryBytes = 32 * 1024;
    std::uint32_t resultSlotBytes = 512;
};

/** Outcome and accounting of one FS2 search. */
struct Fs2SearchResult
{
    /** Ordinals of accepted clauses, in stream order. */
    std::vector<std::uint32_t> acceptedOrdinals;

    std::uint64_t clausesExamined = 0;
    std::uint64_t bytesStreamed = 0;
    unify::TueOpCounts ops{};
    std::uint64_t microInstructions = 0;

    Tick tueBusyTime = 0;       ///< datapath time (Table 1 weighted)
    Tick sequencerTime = 0;     ///< microinstruction overhead (if any)
    Tick diskTime = 0;          ///< access + transfer of the stream
    Tick elapsed = 0;           ///< end-to-end (pipeline completion)
    Tick stallTime = 0;         ///< engine waiting on disk
    std::uint64_t overruns = 0; ///< disk outran the filter

    std::uint32_t satisfiers = 0;
    bool resultOverflow = false;
    /** Satisfiers lost past the 64-slot capacity (requeue these). */
    std::uint32_t satisfiersDropped = 0;

    std::uint64_t hits() const { return acceptedOrdinals.size(); }

    /** Effective filtering rate over the streamed bytes (bytes/s). */
    double filterRate() const;
};

/** The FS2 board model. */
class Fs2Engine
{
  public:
    explicit Fs2Engine(Fs2Config config = {});

    const Fs2Config &config() const { return config_; }

    /**
     * Microprogramming + Set Query modes: compile the query goal into
     * a microprogram and a Query Memory image.
     *
     * @param q_arena,q_goal the query goal (atom or structure)
     */
    void setQuery(const term::TermArena &q_arena, term::TermRef q_goal);

    /** Set a pre-encoded query argument stream directly. */
    void setQuery(pif::EncodedArgs query, term::PredicateId predicate);

    /**
     * Attach tracer/metrics sinks for subsequent searches.  Each
     * search records one "fs2.search" span under @p parent plus up to
     * @p max_detail_spans "fs2.db.fill" children (one per clause
     * record admitted to the Double Buffer — capped because a search
     * examines thousands of records), and accumulates fs2.* counters
     * (clauses examined, bytes streamed, buffer stalls/overruns).
     */
    void
    setObserver(const obs::Observer &obs, obs::SpanId parent = 0,
                std::uint32_t max_detail_spans = 32)
    {
        observer_ = obs;
        obsParent_ = parent;
        maxDetailSpans_ = max_detail_spans;
    }

    /**
     * Search mode over a whole clause file.
     *
     * @param file the compiled clause file (must match the query's
     *        predicate)
     * @param disk optional disk model; when present, delivery times
     *        and stalls are simulated, otherwise only TUE busy time
     *        accrues
     * @param file_offset position of the clause file on the disk
     */
    Fs2SearchResult search(const storage::ClauseFile &file,
                           const storage::DiskModel *disk = nullptr,
                           std::uint64_t file_offset = 0);

    /**
     * Search mode over selected records only (the FS1+FS2 two-stage
     * configuration): the disk sweeps the spanned region once and the
     * engine examines just the selected records.
     *
     * @param ordinals clause ordinals to examine, ascending
     */
    Fs2SearchResult searchSelected(const storage::ClauseFile &file,
                                   const std::vector<std::uint32_t> &
                                       ordinals,
                                   const storage::DiskModel *disk =
                                       nullptr,
                                   std::uint64_t file_offset = 0);

    /**
     * @name Oracle: the microcode interpreter
     *
     * search() and searchSelected() run every clause through the
     * AOT-compiled match routines.  These twins run the same stream
     * through the WCS interpreter instead; verdicts, Table-1 op
     * streams, microinstruction counts, and every timing field are
     * bit-identical (the EngineEquivalence fuzz enforces it).  They
     * exist for tests and the paper-figure benches, never for serving.
     */
    /// @{
    Fs2SearchResult searchInterpreted(const storage::ClauseFile &file,
                                      const storage::DiskModel *disk =
                                          nullptr,
                                      std::uint64_t file_offset = 0);
    Fs2SearchResult
    searchSelectedInterpreted(const storage::ClauseFile &file,
                              const std::vector<std::uint32_t> &ordinals,
                              const storage::DiskModel *disk = nullptr,
                              std::uint64_t file_offset = 0);
    /// @}

    /** Read Result mode: the capture memory. */
    const ResultMemory &results() const { return resultMemory_; }

    /** The TUE (e.g. to enable datapath tracing). */
    TestUnificationEngine &tue() { return tue_; }

    /** The assembled microprogram (for inspection/disassembly). */
    const Microprogram &microprogram() const { return program_; }

  private:
    Fs2Config config_;
    TestUnificationEngine tue_;
    Wcs wcs_;
    CompiledMatcher compiled_;
    DoubleBuffer doubleBuffer_;
    ResultMemory resultMemory_;
    Microprogram program_;

    pif::EncodedArgs query_;
    /** Scratch decode of the record under examination, reused. */
    pif::EncodedArgs dbArgs_;
    term::PredicateId predicate_;
    bool queryLoaded_ = false;

    obs::Observer observer_{};
    obs::SpanId obsParent_ = 0;
    std::uint32_t maxDetailSpans_ = 32;

    /** Every ordinal of @p file, for the whole-file searches. */
    static std::vector<std::uint32_t>
    allOrdinals(const storage::ClauseFile &file);

    /**
     * The one stream loop; @p interpreted dispatches clauses to the
     * WCS interpreter (the oracle) instead of the compiled routines.
     */
    Fs2SearchResult runStream(const storage::ClauseFile &file,
                              const std::vector<std::uint32_t> &ordinals,
                              const storage::DiskModel *disk,
                              std::uint64_t file_offset,
                              bool interpreted);
};

} // namespace clare::fs2

#endif // CLARE_FS2_FS2_ENGINE_HH
