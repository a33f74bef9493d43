#include "clare/board.hh"

#include "support/logging.hh"

namespace clare::engine {

const char *
operationalModeName(OperationalMode mode)
{
    switch (mode) {
      case OperationalMode::ReadResult: return "Read Result";
      case OperationalMode::Search: return "Search";
      case OperationalMode::Microprogramming: return "Microprogramming";
      case OperationalMode::SetQuery: return "Set Query";
    }
    return "?";
}

ClareBoard::ClareBoard(scw::CodewordGenerator generator,
                       fs1::Fs1Config fs1_config,
                       fs2::Fs2Config fs2_config)
    : fs1_(std::move(generator), fs1_config), fs2_(fs2_config)
{
}

void
ClareBoard::checkWindow(std::uint32_t address) const
{
    if (address < kVmeWindowBase || address > kVmeWindowEnd)
        clare_fatal("VME access at 0x%08x outside the CLARE window "
                    "[0x%08x, 0x%08x]", address, kVmeWindowBase,
                    kVmeWindowEnd);
}

void
ClareBoard::write8(std::uint32_t address, std::uint8_t value)
{
    checkWindow(address);
    std::uint32_t offset = address - kVmeWindowBase;
    if (offset == kControlRegisterOffset) {
        // b7 is a status bit owned by the hardware; host writes do not
        // set it.
        bool match = control_.matchFound();
        control_.write(value);
        control_.setMatchFound(match);
        return;
    }
    clare_fatal("unmapped CLARE register write at offset 0x%x", offset);
}

std::uint8_t
ClareBoard::read8(std::uint32_t address) const
{
    checkWindow(address);
    std::uint32_t offset = address - kVmeWindowBase;
    if (offset == kControlRegisterOffset)
        return control_.value();
    clare_fatal("unmapped CLARE register read at offset 0x%x", offset);
}

fs1::Fs1Engine &
ClareBoard::fs1()
{
    clare_assert(control_.filter() == FilterSelect::Fs1,
                 "FS1 accessed while b2 selects FS2 (the filters are "
                 "mutually exclusive)");
    return fs1_;
}

fs2::Fs2Engine &
ClareBoard::fs2()
{
    clare_assert(control_.filter() == FilterSelect::Fs2,
                 "FS2 accessed while b2 selects FS1 (the filters are "
                 "mutually exclusive)");
    return fs2_;
}

void
ClareBoard::noteSearchOutcome(bool match_found)
{
    control_.setMatchFound(match_found);
}

void
ClareDriver::setMode(OperationalMode mode, FilterSelect filter)
{
    board_.write8(kVmeWindowBase + kControlRegisterOffset,
                  ControlRegister::compose(mode, filter));
    sequence_.push_back(mode);
}

fs2::Fs2SearchResult
ClareDriver::fs2Search(const term::TermArena &q_arena,
                       term::TermRef q_goal,
                       const storage::ClauseFile &file,
                       const storage::DiskModel *disk)
{
    sequence_.clear();

    // 1. Load the query's microprogram (assembled at construction in
    //    this model; the mode transition is still performed).
    setMode(OperationalMode::Microprogramming, FilterSelect::Fs2);

    // 2. Write the query arguments into the Query Memory.
    setMode(OperationalMode::SetQuery, FilterSelect::Fs2);
    board_.fs2().setQuery(q_arena, q_goal);

    // 3. Run the search; the DMA window is the FS2 address space.
    setMode(OperationalMode::Search, FilterSelect::Fs2);
    fs2::Fs2SearchResult result = board_.fs2().search(file, disk);
    board_.noteSearchOutcome(!result.acceptedOrdinals.empty());

    // 4. Extract potential answers if b7 is set.
    setMode(OperationalMode::ReadResult, FilterSelect::Fs2);
    return result;
}

fs1::Fs1Result
ClareDriver::fs1Search(const scw::Signature &query,
                       const scw::SecondaryFile &index)
{
    sequence_.clear();
    setMode(OperationalMode::SetQuery, FilterSelect::Fs1);
    setMode(OperationalMode::Search, FilterSelect::Fs1);
    // The board streams raw entries past the PLAs as the hardware
    // does; it holds no bit-sliced plane, so it runs the row-major
    // scan (bit-identical to the host's plane scan).
    fs1::Fs1Result result = board_.fs1().searchRowMajor(index, query);
    board_.noteSearchOutcome(!result.ordinals.empty());
    setMode(OperationalMode::ReadResult, FilterSelect::Fs1);
    return result;
}

} // namespace clare::engine
