#include "crs/store.hh"

#include <algorithm>

#include "support/crc32.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"

namespace clare::crs {

DecodedDelta::DecodedDelta(std::shared_ptr<const DecodedDelta> prev,
                           std::vector<term::Clause> clauses)
    : prev_(std::move(prev)), clauses_(std::move(clauses))
{
    std::vector<term::ClauseView> views;
    views.reserve(clauses_.size());
    for (const term::Clause &c : clauses_)
        views.push_back(term::ClauseView{&c.arena(), c.head(), c.body()});
    views_ = prev_ != nullptr
        ? prev_->views_.append(views)
        : support::SharedPrefix<term::ClauseView>().append(views);
}

DecodedDelta::~DecodedDelta()
{
    // Release the chain link by link: letting each destructor free its
    // predecessor would nest one call per commit since the base table
    // was built.  A link nobody else holds is unlinked before it dies.
    std::shared_ptr<const DecodedDelta> next = std::move(prev_);
    while (next != nullptr && next.use_count() == 1)
        next = std::move(next->prev_);
}

std::size_t
DecodedDelta::bytesBeyondPrev() const
{
    std::size_t n = sizeof(DecodedDelta) +
        clauses_.capacity() * sizeof(term::Clause);
    for (const term::Clause &c : clauses_)
        n += c.arena().memoryFootprint() +
            c.body().size() * sizeof(term::TermRef);
    if (prev_ == nullptr ||
        views_.extent().block != prev_->views_.extent().block)
        n += views_.extent().bytes;
    return n;
}

namespace {

/**
 * Heap bytes @p v keeps alive beyond its chain predecessor @p prev
 * (null for the first version of a chain).  Versions share storage
 * only with their predecessor, so counting what differs from it
 * counts every shared block once.
 */
std::uint64_t
bytesBeyond(const StoredPredicate &v, const StoredPredicate *prev)
{
    const StoredPredicate none;
    const StoredPredicate &p = prev != nullptr ? *prev : none;
    std::uint64_t n = sizeof(StoredPredicate) +
        v.indexPageCrcs.capacity() * sizeof(std::uint32_t);
    auto block = [&n](support::StorageExtent mine,
                      support::StorageExtent theirs) {
        if (mine.block != theirs.block)
            n += mine.bytes;
    };
    const auto mine = v.clauses.storage();
    const auto theirs = p.clauses.storage();
    for (std::size_t i = 0; i < mine.size(); ++i)
        block(mine[i], theirs[i]);
    block(v.index.storage(), p.index.storage());
    if (v.sliced != nullptr && v.sliced != p.sliced)
        n += v.sliced->memoryBytes();
    if (v.deltaSliced != nullptr && v.deltaSliced != p.deltaSliced)
        n += v.deltaSliced->memoryBytes();
    if (v.decoded != nullptr && v.decoded != p.decoded)
        n += v.decoded->memoryBytes();
    if (v.decodedDelta != nullptr && v.decodedDelta != p.decodedDelta)
        n += v.decodedDelta->bytesBeyondPrev();
    return n;
}

} // namespace

void
StoredPredicate::setRules(std::size_t rule_count)
{
    rules = rule_count;
    ruleFraction = clauses.clauseCount() == 0
        ? 0.0
        : static_cast<double>(rules) /
          static_cast<double>(clauses.clauseCount());
}

term::ClauseView
StoredPredicate::decodedClause(std::uint32_t ordinal) const
{
    const std::size_t base = decoded->size();
    return ordinal < base ? decoded->view(ordinal)
                          : decodedDelta->view(ordinal - base);
}

std::shared_ptr<const term::ClauseTable>
decodeClauses(const storage::ClauseFile &file, term::SymbolTable &symbols)
{
    // A batch of parsed clauses is held until its exact size is
    // known, then copied into the table's next arena; holding the
    // whole predicate would cost a Clause (an arena of its own) per
    // record at once.  The entries are reserved for every record up
    // front, so the batches do not regrow them.
    static constexpr std::size_t kBatch = 4096;
    term::TermReader reader(symbols);
    auto table = std::make_shared<term::ClauseTable>();
    table->reserve(term::ClauseTable::Size{.clauses = file.clauseCount()});
    std::vector<term::Clause> parsed;
    parsed.reserve(std::min(kBatch, file.clauseCount()));
    for (std::size_t begin = 0; begin < file.clauseCount();
         begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, file.clauseCount());
        parsed.clear();
        term::ClauseTable::Size size;
        for (std::size_t i = begin; i < end; ++i) {
            parsed.push_back(reader.parseClause(file.sourceText(i)));
            size.add(parsed.back().view());
        }
        table->reserve(size);
        for (const term::Clause &clause : parsed)
            table->add(clause);
    }
    return table;
}

std::shared_ptr<StoredPredicate>
PredicateBuilder::build(std::span<const term::ClauseView> clauses)
{
    term::ClauseTable::Size size;
    for (const term::ClauseView &clause : clauses)
        size.add(clause);
    auto decoded = std::make_shared<term::ClauseTable>();
    decoded->reserve(size);

    storage::ClauseFileBuilder file(writer_);
    const std::size_t entry_bytes = generator_.signatureBytes() + 8;
    std::vector<std::uint8_t> index;
    index.reserve(entry_bytes * clauses.size());
    auto sliced =
        std::make_shared<scw::BitSlicedIndex>(generator_, clauses.size());
    std::size_t rules = 0;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        // The record, its index entry and the table entry all hold the
        // clause's stored form, the one its record text reads back as.
        const term::ClauseView clause = decoded->add(clauses[i], symbols_);
        const storage::ClauseRecord rec = file.add(clause);
        generator_.encodeInto(*clause.arena, clause.head, signature_);
        scw::SecondaryFile::appendEntry(generator_, signature_, rec, index);
        sliced->setEntry(i, signature_, rec.offset, rec.ordinal);
        rules += clause.isFact() ? 0 : 1;
    }

    auto out = std::make_shared<StoredPredicate>();
    out->clauses = file.finish();
    out->setRules(rules);
    out->index = scw::SecondaryFile::fromImage(std::move(index),
                                               clauses.size(), entry_bytes);
    out->indexPageCrcs = support::pageChecksums(
        out->index.image().data(), out->index.image().size());
    out->sliced = std::move(sliced);
    out->decoded = std::move(decoded);
    return out;
}

PredicateStore::PredicateStore(term::SymbolTable &symbols,
                               scw::CodewordGenerator generator,
                               storage::DiskGeometry geometry)
    : symbols_(symbols), generator_(std::move(generator)),
      writer_(symbols_), dataDisk_(geometry), indexDisk_(geometry),
      mvccMutex_(std::make_unique<std::shared_mutex>())
{
}

void
PredicateStore::addProgram(const term::Program &program)
{
    clare_assert(!finalized_, "store already finalized");
    PredicateBuilder builder(symbols_, generator_, writer_);
    std::vector<term::ClauseView> clauses;
    for (const term::PredicateId &pred : program.predicates()) {
        clauses.clear();
        for (std::size_t i : program.clausesOf(pred))
            clauses.push_back(program.clause(i).view());
        openChain(pred, builder.build(clauses));
    }
}

void
PredicateStore::addStored(const term::PredicateId &pred,
                          storage::ClauseFile clauses,
                          scw::SecondaryFile index,
                          std::shared_ptr<const scw::BitSlicedIndex>
                              sliced)
{
    clare_assert(!finalized_, "store already finalized");
    auto stored = std::make_shared<StoredPredicate>();
    std::size_t rules = 0;
    for (std::size_t i = 0; i < clauses.clauseCount(); ++i)
        rules += clauses.record(i).isFact() ? 0 : 1;
    stored->decoded = decodeClauses(clauses, symbols_);
    stored->clauses = std::move(clauses);
    stored->setRules(rules);
    stored->index = std::move(index);
    stored->indexPageCrcs = support::pageChecksums(
        stored->index.image().data(), stored->index.image().size());
    stored->sliced = sliced != nullptr
        ? std::move(sliced)
        : std::make_shared<scw::BitSlicedIndex>(
              scw::BitSlicedIndex::build(generator_, stored->index));
    openChain(pred, std::move(stored));
}

void
PredicateStore::openChain(const term::PredicateId &pred,
                          std::shared_ptr<StoredPredicate> stored)
{
    auto &chain = versions_[pred];
    if (!chain.empty())
        clare_fatal("predicate %s/%u stored twice",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    chain.emplace_back(0, std::move(stored));
    order_.push_back(pred);
}

void
PredicateStore::finalize()
{
    clare_assert(!finalized_, "store already finalized");
    // Predicates are laid out back to back on the two disks; the
    // disks hold only the extents (each version keeps its own images).
    std::uint64_t data_extent = 0;
    std::uint64_t index_extent = 0;
    for (const term::PredicateId &pred : order_) {
        StoredPredicate &stored = *versions_.at(pred).front().second;
        stored.clauseFileOffset = data_extent;
        data_extent += stored.clauses.image().size();
        stored.indexFileOffset = index_extent;
        index_extent += stored.index.image().size();
        retainedBytes_ += bytesBeyond(stored, nullptr);
    }
    liveVersions_ = order_.size();
    dataDisk_.setExtent(data_extent);
    indexDisk_.setExtent(index_extent);
    finalized_ = true;
}

bool
PredicateStore::has(const term::PredicateId &pred) const
{
    std::shared_lock lock(*mvccMutex_);
    return versions_.count(pred) != 0;
}

std::shared_ptr<const StoredPredicate>
PredicateStore::predicateVersion(const term::PredicateId &pred,
                                 std::optional<std::uint64_t> generation)
    const
{
    std::shared_lock lock(*mvccMutex_);
    auto it = versions_.find(pred);
    if (it == versions_.end())
        return nullptr;
    const auto &chain = it->second;
    // Newest version with generation <= the pin, scanning the (short,
    // append-only) chain backward.
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit)
        if (!generation || rit->first <= *generation)
            return rit->second;
    return nullptr;
}

std::uint64_t
PredicateStore::headGeneration() const
{
    std::shared_lock lock(*mvccMutex_);
    return headGeneration_;
}

std::uint64_t
PredicateStore::publish(
    std::map<term::PredicateId,
             std::shared_ptr<StoredPredicate>> versions)
{
    std::unique_lock lock(*mvccMutex_);
    std::uint64_t gen = ++headGeneration_;
    for (auto &kv : versions) {
        kv.second->generation = gen;
        auto &chain = versions_[kv.first];
        if (chain.empty())
            order_.push_back(kv.first);
        retainedBytes_ += bytesBeyond(
            *kv.second, chain.empty() ? nullptr : chain.back().second.get());
        ++liveVersions_;
        chain.emplace_back(gen, std::move(kv.second));
    }
    return gen;
}

std::vector<term::PredicateId>
PredicateStore::predicates() const
{
    std::shared_lock lock(*mvccMutex_);
    return order_;
}

std::uint64_t
PredicateStore::dataBytes() const
{
    std::shared_lock lock(*mvccMutex_);
    std::uint64_t n = 0;
    for (const auto &kv : versions_)
        n += kv.second.back().second->clauses.image().size();
    return n;
}

std::uint64_t
PredicateStore::indexBytes() const
{
    std::shared_lock lock(*mvccMutex_);
    std::uint64_t n = 0;
    for (const auto &kv : versions_)
        n += kv.second.back().second->index.image().size();
    return n;
}

std::uint64_t
PredicateStore::liveVersions() const
{
    std::shared_lock lock(*mvccMutex_);
    return liveVersions_;
}

std::uint64_t
PredicateStore::retainedBytes() const
{
    std::shared_lock lock(*mvccMutex_);
    return retainedBytes_;
}

} // namespace clare::crs
