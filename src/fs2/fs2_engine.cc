#include "fs2/fs2_engine.hh"

#include "support/logging.hh"

namespace clare::fs2 {

using storage::ClauseFile;
using storage::ClauseRecord;
using storage::DiskModel;

double
Fs2SearchResult::filterRate() const
{
    Tick busy = tueBusyTime + sequencerTime;
    return busy == 0 ? 0.0 : bytesPerSecond(bytesStreamed, busy);
}

Fs2Engine::Fs2Engine(Fs2Config config)
    : config_(config),
      tue_(config.level, config.crossBinding),
      wcs_(WcsConfig{config.sequencerOverhead, 1u << 20}),
      compiled_(config.level, config.crossBinding,
                WcsConfig{config.sequencerOverhead, 1u << 20}),
      doubleBuffer_(config.doubleBufferBank),
      resultMemory_(config.resultMemoryBytes, config.resultSlotBytes)
{
    // Microprogramming mode: translate the matching algorithm into
    // control-store words and program the map ROM.
    RoutineAddresses routines;
    program_ = assembleMatchProgram(config_.level, routines);
    wcs_.loadProgram(program_);
    wcs_.loadMapRom(MapRom::program(config_.level, config_.crossBinding,
                                    routines));
}

void
Fs2Engine::setQuery(const term::TermArena &q_arena, term::TermRef q_goal)
{
    pif::Encoder encoder;
    pif::EncodedArgs args = encoder.encodeArgs(q_arena, q_goal,
                                               pif::Side::Query);
    setQuery(std::move(args), term::predicateOf(q_arena, q_goal));
}

void
Fs2Engine::setQuery(pif::EncodedArgs query, term::PredicateId predicate)
{
    query_ = std::move(query);
    predicate_ = predicate;
    queryLoaded_ = true;
}

std::vector<std::uint32_t>
Fs2Engine::allOrdinals(const ClauseFile &file)
{
    std::vector<std::uint32_t> all;
    all.reserve(file.clauseCount());
    for (std::size_t i = 0; i < file.clauseCount(); ++i)
        all.push_back(static_cast<std::uint32_t>(i));
    return all;
}

Fs2SearchResult
Fs2Engine::search(const ClauseFile &file, const DiskModel *disk,
                  std::uint64_t file_offset)
{
    return runStream(file, allOrdinals(file), disk, file_offset, false);
}

Fs2SearchResult
Fs2Engine::searchSelected(const ClauseFile &file,
                          const std::vector<std::uint32_t> &ordinals,
                          const DiskModel *disk, std::uint64_t file_offset)
{
    return runStream(file, ordinals, disk, file_offset, false);
}

Fs2SearchResult
Fs2Engine::searchInterpreted(const ClauseFile &file, const DiskModel *disk,
                             std::uint64_t file_offset)
{
    return runStream(file, allOrdinals(file), disk, file_offset, true);
}

Fs2SearchResult
Fs2Engine::searchSelectedInterpreted(
    const ClauseFile &file, const std::vector<std::uint32_t> &ordinals,
    const DiskModel *disk, std::uint64_t file_offset)
{
    return runStream(file, ordinals, disk, file_offset, true);
}

Fs2SearchResult
Fs2Engine::runStream(const ClauseFile &file,
                     const std::vector<std::uint32_t> &ordinals,
                     const DiskModel *disk, std::uint64_t file_offset,
                     bool interpreted)
{
    clare_assert(queryLoaded_, "search started before Set Query");
    for (std::size_t i = 1; i < ordinals.size(); ++i)
        clare_assert(ordinals[i - 1] < ordinals[i],
                     "selected ordinals must be ascending");
    if (!(file.predicate() == predicate_))
        clare_fatal("clause file predicate does not match the query "
                    "(functor %u/%u vs %u/%u)",
                    file.predicate().functor, file.predicate().arity,
                    predicate_.functor, predicate_.arity);

    Fs2SearchResult result;
    tue_.resetStats();
    wcs_.resetStats();
    compiled_.resetStats();
    doubleBuffer_.reset();
    resultMemory_.reset();

    obs::ScopedSpan search_span(observer_.tracer, "fs2.search",
                                obsParent_);

    if (ordinals.empty())
        return result;

    // Disk timing.  Two fetch strategies are available to the CRS:
    // one sequential sweep over the spanned region (each record is
    // delivered when the head has streamed past its end), or a seek
    // per selected record.  The cheaper one is used — a full-file
    // search always sweeps; a sparse candidate fetch may seek.
    std::uint64_t span_start = file.record(ordinals.front()).offset;
    const ClauseRecord &last_rec = file.record(ordinals.back());
    std::uint64_t span_end = last_rec.offset + last_rec.length;
    Tick access = disk ? disk->accessTime() : 0;

    std::uint64_t selected_bytes = 0;
    for (std::uint32_t ordinal : ordinals)
        selected_bytes += file.record(ordinal).length;
    Tick sweep_total = 0;
    Tick seek_total = 0;
    bool per_record = false;
    if (disk) {
        sweep_total = access + disk->transferTime(span_end - span_start);
        seek_total = access * ordinals.size() +
            disk->transferTime(selected_bytes);
        per_record = seek_total < sweep_total;
    }

    std::uint64_t fetched_bytes = 0;
    std::size_t fetched_records = 0;
    for (std::uint32_t ordinal : ordinals) {
        const ClauseRecord &rec = file.record(ordinal);
        file.decodeArgsInto(rec, dbArgs_);

        Tick delivered = 0;
        fetched_bytes += rec.length;
        ++fetched_records;
        if (disk) {
            if (per_record) {
                delivered = access * fetched_records +
                    disk->transferTime(fetched_bytes);
            } else {
                std::uint64_t rec_end = rec.offset + rec.length;
                delivered = access +
                    disk->transferTime(rec_end - span_start);
            }
        }

        // The parallel copy into the Result Memory happens while the
        // record streams in.
        resultMemory_.beginClause(file.image().data() + rec.offset,
                                  rec.length);

        tue_.resetForClause(dbArgs_.varSlots, query_.varSlots);
        // Both dispatch targets accumulate the identical sequencer
        // clock, so the busy-time delta reads whichever one ran.
        Tick busy_before = tue_.busyTime() +
            (interpreted ? wcs_.sequencerTime()
                         : compiled_.sequencerTime());
        ClauseVerdict verdict = interpreted
            ? wcs_.runClause(tue_, dbArgs_.items, rec.arity, query_)
            : compiled_.runClause(tue_, dbArgs_.items, rec.arity,
                                  query_);
        Tick processing = (tue_.busyTime() +
                           (interpreted ? wcs_.sequencerTime()
                                        : compiled_.sequencerTime())) -
            busy_before;

        doubleBuffer_.admit(delivered, processing, rec.length);

        // Per-fill detail spans, capped: a search admits one record
        // per clause and an uncapped trace would dwarf the rest.
        if (search_span.active() &&
            fetched_records <= maxDetailSpans_) {
            obs::ScopedSpan fill(observer_.tracer, "fs2.db.fill",
                                 search_span.id());
            fill.attr("ordinal", static_cast<std::uint64_t>(ordinal));
            fill.attr("bytes", static_cast<std::uint64_t>(rec.length));
            fill.attr("delivered_ticks", delivered);
            fill.setSimTicks(processing);
        }

        ++result.clausesExamined;
        result.bytesStreamed += rec.length;
        if (verdict == ClauseVerdict::Accepted) {
            result.acceptedOrdinals.push_back(ordinal);
            resultMemory_.commit();
        } else {
            resultMemory_.discard();
        }
    }

    result.ops = tue_.opCounts();
    result.tueBusyTime = tue_.busyTime();
    result.sequencerTime = interpreted
        ? wcs_.sequencerTime() : compiled_.sequencerTime();
    result.microInstructions = interpreted
        ? wcs_.instructionsExecuted()
        : compiled_.instructionsExecuted();
    result.stallTime = doubleBuffer_.stallTime();
    result.overruns = doubleBuffer_.overruns();
    if (disk) {
        result.diskTime = per_record ? seek_total : sweep_total;
        result.elapsed = std::max(result.diskTime,
                                  doubleBuffer_.lastCompletion());
    } else {
        result.elapsed = doubleBuffer_.lastCompletion();
    }
    result.satisfiers = resultMemory_.satisfierCount();
    result.resultOverflow = resultMemory_.overflowed();
    result.satisfiersDropped = resultMemory_.droppedSatisfiers();
    (void)file_offset;

    if (search_span.active()) {
        search_span.attr("clauses", result.clausesExamined);
        search_span.attr("accepted", result.hits());
        search_span.attr("stall_ticks", result.stallTime);
        search_span.attr("overruns", result.overruns);
        search_span.setSimTicks(result.elapsed);
    }
    if (observer_.metrics != nullptr) {
        obs::MetricsRegistry &m = *observer_.metrics;
        ++m.counter("fs2.searches", "FS2 search-mode runs");
        m.counter("fs2.clauses_examined",
                  "clause records run through the TUE") +=
            result.clausesExamined;
        m.counter("fs2.bytes_streamed",
                  "clause bytes streamed through the Double Buffer") +=
            result.bytesStreamed;
        m.counter("fs2.accepted", "clauses passing the filter") +=
            result.hits();
        m.counter("fs2.db.fills",
                  "records admitted to the Double Buffer") +=
            result.clausesExamined;
        m.counter("fs2.db.stall_ticks",
                  "simulated ticks the engine waited on the disk") +=
            result.stallTime;
        m.counter("fs2.db.overruns",
                  "deliveries that outran the filter") +=
            result.overruns;
        m.counter("fs2.micro_instructions",
                  "WCS microinstructions executed") +=
            result.microInstructions;
    }
    return result;
}

} // namespace clare::fs2
