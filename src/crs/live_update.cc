#include "crs/live_update.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "crs/store_io.hh"
#include "storage/file_io.hh"
#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "unify/unify.hh"

namespace clare::crs {

namespace fs = std::filesystem;

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    return static_cast<std::uint32_t>(in[at]) |
        static_cast<std::uint32_t>(in[at + 1]) << 8 |
        static_cast<std::uint32_t>(in[at + 2]) << 16 |
        static_cast<std::uint32_t>(in[at + 3]) << 24;
}

storage::Wal::RecordKind
walKind(const LiveOp &op)
{
    return op.kind == LiveOp::Kind::Retract
        ? storage::Wal::RecordKind::Retract
        : storage::Wal::RecordKind::Assert;
}

/**
 * Serialize one op into its WAL payload (see Wal::RecordKind): an
 * assert op logs the text of its stored-form clause.
 */
std::vector<std::uint8_t>
encodePayload(const LiveOp &op, const term::SymbolTable &symbols,
              const term::TermWriter &writer)
{
    std::vector<std::uint8_t> payload;
    if (op.kind == LiveOp::Kind::Retract) {
        const std::string name = symbols.name(op.pred.functor);
        putU32(payload, op.pred.arity);
        putU32(payload, op.ordinal);
        putU32(payload, static_cast<std::uint32_t>(name.size()));
        payload.insert(payload.end(), name.begin(), name.end());
    } else {
        const std::string text = writer.writeClause(op.clause);
        payload.push_back(op.kind == LiveOp::Kind::Asserta ? 1 : 0);
        putU32(payload, static_cast<std::uint32_t>(text.size()));
        payload.insert(payload.end(), text.begin(), text.end());
    }
    return payload;
}

/**
 * Apply one op to a predicate's evolving clause list.
 * @return false when a retract names a position past the list
 */
bool
applyOp(std::vector<term::ClauseView> &list, const LiveOp &op)
{
    switch (op.kind) {
    case LiveOp::Kind::Assertz:
        list.push_back(op.clause.view());
        break;
    case LiveOp::Kind::Asserta:
        list.insert(list.begin(), op.clause.view());
        break;
    case LiveOp::Kind::Retract:
        if (op.ordinal >= list.size())
            return false;
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(op.ordinal));
        break;
    }
    return true;
}

/**
 * The decoded clauses of @p prev (none when null), in clause order:
 * the start of the evolving list a retract resolves against and a
 * compaction rebuilds from, with room for @p more.
 */
std::vector<term::ClauseView>
decodedClauses(const StoredPredicate *prev, std::size_t more)
{
    std::vector<term::ClauseView> clauses;
    const std::size_t n = prev != nullptr ? prev->clauses.clauseCount() : 0;
    clauses.reserve(n + more);
    for (std::size_t i = 0; i < n; ++i)
        clauses.push_back(prev->decodedClause(static_cast<std::uint32_t>(i)));
    return clauses;
}

/** Durably write a small file in one shot (the CURRENT.tmp path). */
void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw IoError(path, "cannot open for writing");
    if (!content.empty() &&
        std::fwrite(content.data(), 1, content.size(), f) !=
            content.size()) {
        std::fclose(f);
        throw IoError(path, "short write");
    }
    storage::syncFile(f, path);
    std::fclose(f);
}

} // namespace

LiveStore::LiveStore(PredicateStore &store, term::SymbolTable &symbols,
                     const std::string &wal_path,
                     std::uint64_t applied_lsn,
                     const support::FaultInjector *faults)
    : store_(store), symbols_(symbols), writer_(symbols),
      faults_(faults),
      wal_(std::make_unique<storage::Wal>(wal_path, faults)),
      appliedLsn_(applied_lsn)
{
    // A crash during checkpoint's reset() can leave a partial WAL
    // header, which recovery rewrites with baseLsn = 0 while the
    // manifest watermark already sits at appliedLsn.  Left alone, the
    // next commits would take LSNs below the watermark and the *next*
    // recovery would skip them as already applied — silent loss of
    // committed data.  Rebase the empty log onto the watermark before
    // accepting writes.  (A log with recovered records never needs
    // this: its tail is exactly the watermark the manifest recorded.)
    if (wal_->recovered().empty() && wal_->baseLsn() < appliedLsn_)
        wal_->reset(appliedLsn_);

    // Recovery replay: every committed record past the checkpoint
    // watermark flows through the exact commit path a live writer
    // uses, one published generation per commit group.  Records below
    // the watermark are already folded into the loaded store.
    std::vector<LiveOp> group;
    for (const storage::Wal::Record &rec : wal_->recovered()) {
        const bool applied = rec.lsn < appliedLsn_;
        switch (rec.kind) {
        case storage::Wal::RecordKind::Assert:
        case storage::Wal::RecordKind::Retract:
            if (!applied)
                group.push_back(decodeOp(rec));
            break;
        case storage::Wal::RecordKind::Commit:
            if (!group.empty()) {
                commitOps(std::move(group), /*log=*/false);
                ++recoveredCommits_;
            }
            group.clear();
            break;
        case storage::Wal::RecordKind::Checkpoint:
            group.clear();
            break;
        }
    }
}

CorruptionError
LiveStore::walDamage(std::uint64_t lsn, const std::string &why) const
{
    return CorruptionError(wal_->path(), kNoFilePosition, lsn,
                           "record at LSN " + std::to_string(lsn) + ": " +
                               why);
}

LiveOp
LiveStore::assertOp(LiveOp::Kind kind, const term::ClauseView &clause)
{
    LiveOp op;
    op.kind = kind;
    op.clause = term::storedClause(clause, symbols_);
    op.pred = op.clause.predicate();
    return op;
}

LiveOp
LiveStore::decodeOp(const storage::Wal::Record &rec)
{
    auto corrupt = [&](const std::string &why) {
        return walDamage(rec.lsn, why);
    };
    LiveOp op;
    const std::vector<std::uint8_t> &p = rec.payload;
    if (rec.kind == storage::Wal::RecordKind::Retract) {
        if (p.size() < 12)
            throw corrupt("short retract payload");
        op.kind = LiveOp::Kind::Retract;
        op.pred.arity = getU32(p, 0);
        op.ordinal = getU32(p, 4);
        std::uint32_t len = getU32(p, 8);
        if (p.size() != 12 + static_cast<std::size_t>(len))
            throw corrupt("malformed retract payload");
        std::string name(p.begin() + 12, p.end());
        op.pred.functor = symbols_.intern(name);
        op.lsn = rec.lsn;
        return op;
    }
    if (p.size() < 5)
        throw corrupt("short assert payload");
    const LiveOp::Kind kind =
        p[0] != 0 ? LiveOp::Kind::Asserta : LiveOp::Kind::Assertz;
    std::uint32_t len = getU32(p, 1);
    if (p.size() != 5 + static_cast<std::size_t>(len))
        throw corrupt("malformed assert payload");
    // A CRC-valid record whose text does not parse (a writer bug or a
    // forged log) is damage in the log, not a program fault.
    try {
        const term::Clause parsed = term::TermReader(symbols_).parseClause(
            std::string_view(reinterpret_cast<const char *>(p.data()) + 5,
                             len));
        op = assertOp(kind, parsed.view());
    } catch (const FatalError &e) {
        throw corrupt(std::string("unparsable clause: ") + e.what());
    }
    op.lsn = rec.lsn;
    return op;
}

LiveStore::Update
LiveStore::begin()
{
    return Update(*this);
}

std::uint64_t
LiveStore::assertz(const term::Clause &clause)
{
    Update txn = begin();
    txn.assertz(clause);
    return txn.commit();
}

std::uint64_t
LiveStore::asserta(const term::Clause &clause)
{
    Update txn = begin();
    txn.asserta(clause);
    return txn.commit();
}

std::optional<std::uint64_t>
LiveStore::retract(const term::TermArena &arena, term::TermRef pattern)
{
    Update txn = begin();
    if (!txn.retract(arena, pattern)) {
        txn.abort();
        return std::nullopt;
    }
    return txn.commit();
}

std::uint64_t
LiveStore::commitOps(std::vector<LiveOp> ops, bool log)
{
    if (ops.empty())
        return store_.headGeneration();

    if (log) {
        // Write-ahead: the records and the Commit boundary are durable
        // before any in-memory state changes.  A CrashError (or real
        // IoError) here propagates with nothing published — recovery
        // sees either no trace of the transaction or all of it.
        for (const LiveOp &op : ops)
            wal_->append(walKind(op), encodePayload(op, symbols_, writer_));
        wal_->commit();
    }

    // Group per predicate, preserving op order within each group.
    std::map<term::PredicateId, std::vector<LiveOp *>> groups;
    for (LiveOp &op : ops)
        groups[op.pred].push_back(&op);

    std::map<term::PredicateId, std::shared_ptr<StoredPredicate>>
        versions;
    for (const auto &[pred, group] : groups) {
        std::shared_ptr<const StoredPredicate> prev =
            store_.predicateVersion(pred);
        bool assertz_only = true;
        for (const LiveOp *op : group)
            if (op->kind != LiveOp::Kind::Assertz)
                assertz_only = false;
        // Pure appends ride the composite fast path: base images are
        // shared, only the tail is compiled and transposed.  Anything
        // order-changing (asserta) or removing (retract) triggers a
        // minor compaction of this one predicate.
        if (assertz_only && prev != nullptr)
            versions.emplace(pred, buildComposite(*prev, group));
        else
            versions.emplace(pred, buildCompacted(prev.get(), group));
    }

    std::uint64_t gen = store_.publish(std::move(versions));
    ++commits_;
    // Invalidate after publish: a reader racing the invalidation can
    // at worst re-cache a pre-commit result under the *old*
    // generation's key, which post-commit lookups never consult (goal
    // keys embed the pinned version's generation).
    if (sink_ != nullptr)
        for (const auto &[pred, group] : groups)
            sink_->invalidatePredicate(pred);
    return gen;
}

std::shared_ptr<StoredPredicate>
LiveStore::buildComposite(const StoredPredicate &prev,
                          const std::vector<LiveOp *> &ops)
{
    const scw::CodewordGenerator &gen = store_.generator();

    // Compile the appended tail exactly as a from-scratch build would
    // compile these clause positions: ordinals continue the base
    // file's, so the concatenated image is byte-identical to a full
    // rebuild (ClauseFile::concat asserts the contract).  The tail's
    // index entries take the composite offsets, which continue the
    // base image's, so the index image is byte-identical too.
    storage::ClauseFileBuilder tail_builder(
        writer_, static_cast<std::uint32_t>(prev.clauses.clauseCount()));
    const auto base_bytes =
        static_cast<std::uint32_t>(prev.clauses.image().size());
    scw::Signature signature;
    std::vector<std::uint8_t> entries;
    std::vector<term::Clause> clauses;
    clauses.reserve(ops.size());
    auto out = std::make_shared<StoredPredicate>();
    std::size_t rules = prev.rules;
    for (LiveOp *op : ops) {
        storage::ClauseRecord rec = tail_builder.add(op->clause);
        rec.offset += base_bytes;
        gen.encodeInto(op->clause.arena(), op->clause.head(), signature);
        scw::SecondaryFile::appendEntry(gen, signature, rec, entries);
        rules += op->clause.isFact() ? 0 : 1;
        clauses.push_back(std::move(op->clause));
    }
    out->clauses = storage::ClauseFile::concat(prev.clauses,
                                               tail_builder.finish());
    out->setRules(rules);
    out->index = prev.index.append(entries);

    // Pages before the predecessor's last full page are unchanged, so
    // their CRCs carry over; only the pages from there on are summed.
    constexpr std::size_t page = support::kChecksumPageBytes;
    const std::size_t kept = prev.index.image().size() / page;
    out->indexPageCrcs.reserve((out->index.image().size() + page - 1) /
                               page);
    out->indexPageCrcs.assign(prev.indexPageCrcs.begin(),
                              prev.indexPageCrcs.begin() +
                                  static_cast<std::ptrdiff_t>(kept));
    const std::span<const std::uint8_t> tail_pages =
        out->index.image().subspan(kept * page);
    for (std::uint32_t crc : support::pageChecksums(tail_pages.data(),
                                                    tail_pages.size()))
        out->indexPageCrcs.push_back(crc);

    // LSM-flavored maintenance: share the base plane untouched and
    // cover [baseEntries, total) with the delta mini-plane, extended
    // by this commit's entries only.  FS1 scans both parts and sums
    // the bytes before the one tick conversion, so the split is
    // tick-identical to scanning one full plane.  Without a delta the
    // base plane covers the whole predecessor, however few entries
    // that is (an emptied predicate starts a delta at 0).
    out->sliced = prev.sliced;
    out->baseEntries = prev.deltaSliced != nullptr
        ? prev.baseEntries
        : prev.index.entryCount();
    out->deltaSliced = std::make_shared<const scw::BitSlicedIndex>(
        (prev.deltaSliced != nullptr ? *prev.deltaSliced
                                     : scw::BitSlicedIndex())
            .extended(gen, out->index, out->baseEntries));

    // The decoded clauses split the same way: the base table is
    // shared, and the delta chain gains this commit's clauses.
    out->decoded = prev.decoded;
    out->decodedDelta = std::make_shared<const DecodedDelta>(
        prev.decodedDelta, std::move(clauses));

    out->clauseFileOffset = prev.clauseFileOffset;
    out->indexFileOffset = prev.indexFileOffset;
    return out;
}

std::shared_ptr<StoredPredicate>
LiveStore::buildCompacted(const StoredPredicate *prev,
                          const std::vector<LiveOp *> &ops)
{
    // Replay the ops over the predicate's evolving clause list (the
    // list Update resolved retract positions against), then rebuild
    // the predicate from it: a minor compaction.
    std::vector<term::ClauseView> clauses = decodedClauses(prev, ops.size());
    for (const LiveOp *op : ops)
        if (!applyOp(clauses, *op))
            // Only a replayed record can name a clause that is not
            // there: the live path resolved the position itself.
            throw walDamage(op->lsn,
                            "retract of clause " +
                                std::to_string(op->ordinal) + " of " +
                                std::to_string(clauses.size()));

    std::shared_ptr<StoredPredicate> out =
        PredicateBuilder(symbols_, store_.generator(), writer_)
            .build(clauses);
    if (prev != nullptr) {
        out->clauseFileOffset = prev->clauseFileOffset;
        out->indexFileOffset = prev->indexFileOffset;
    }
    return out;
}

void
LiveStore::checkpoint(const std::string &root)
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    const std::uint64_t applied = wal_->tailLsn();
    const std::string name = "ckpt-" + std::to_string(applied);
    const std::string directory = root + "/" + name;

    StoreWalInfo info;
    info.present = true;
    info.appliedLsn = applied;
    saveStore(directory, store_, symbols_, &info);

    // Byte-granular kill realization: saveStore writes its files in a
    // deterministic order, so a crash "at byte N of the checkpoint
    // stream" is the file containing N truncated there and everything
    // after it never written.  The sweep runs post-hoc — equivalent to
    // crashing mid-write because nothing before the CURRENT flip is
    // reachable by a recovering process.
    std::vector<std::string> order;
    order.push_back(directory + "/symbols.tbl");
    for (const term::PredicateId &pred : store_.predicates()) {
        const std::string stem =
            directory + "/" + predicateFileStem(pred);
        order.push_back(stem + ".kbc");
        order.push_back(stem + ".idx");
    }
    order.push_back(directory + "/manifest.txt");
    if (faults_ != nullptr) {
        for (std::size_t i = 0; i < order.size(); ++i) {
            std::error_code ec;
            const std::uint64_t size = fs::file_size(order[i], ec);
            if (ec)
                throw IoError(order[i], "cannot stat checkpoint file: " +
                              ec.message());
            if (auto kill = faults_->killOffset("checkpoint",
                                                ckptCumulative_,
                                                ckptCumulative_ + size)) {
                fs::resize_file(order[i], *kill - ckptCumulative_, ec);
                for (std::size_t j = i + 1; j < order.size(); ++j)
                    fs::remove(order[j], ec);
                throw CrashError("checkpoint", *kill);
            }
            ckptCumulative_ += size;
        }
    }

    // Durability ordering: every checkpoint byte must be on stable
    // storage before CURRENT can name the directory, or a power loss
    // could publish a torn checkpoint.
    for (const std::string &file : order) {
        std::FILE *f = std::fopen(file.c_str(), "rb");
        if (f == nullptr)
            throw IoError(file, "cannot reopen checkpoint file to sync");
        storage::syncFile(f, file);
        std::fclose(f);
    }
    storage::syncDirectory(directory);

    // The commit point: CURRENT.tmp carries the checkpoint name and is
    // renamed over CURRENT atomically.  Before the rename a recovering
    // process sees the old store + the full WAL; after it, the new
    // store + records above the watermark (none yet).  No third state.
    const std::string content = name + "\n";
    const std::string tmp = root + "/CURRENT.tmp";
    if (faults_ != nullptr) {
        if (auto kill = faults_->killOffset(
                "checkpoint", ckptCumulative_,
                ckptCumulative_ + content.size())) {
            writeFile(tmp, content.substr(0, *kill - ckptCumulative_));
            throw CrashError("checkpoint", *kill);
        }
    }
    writeFile(tmp, content);
    ckptCumulative_ += content.size();
    std::error_code ec;
    fs::rename(tmp, root + "/CURRENT", ec);
    if (ec)
        throw IoError(root + "/CURRENT",
                      "cannot publish checkpoint: " + ec.message());
    // The rename is the commit point; fsync the directory so it
    // survives power loss too.
    storage::syncDirectory(root);

    // Applied records are folded into the checkpoint; restart the log
    // (kill site "wal.checkpoint" — a crash here leaves either the
    // old intact log, whose applied records replay is told to skip,
    // or a clean empty one).
    wal_->reset(applied);
    appliedLsn_ = applied;

    // Best-effort: drop superseded checkpoint directories.
    for (const auto &dirent : fs::directory_iterator(root, ec)) {
        const std::string base = dirent.path().filename().string();
        if (base.rfind("ckpt-", 0) == 0 && base != name) {
            std::error_code rm;
            fs::remove_all(dirent.path(), rm);
        }
    }
}

LiveStore::Update::Update(LiveStore &owner)
    : owner_(&owner), lock_(owner.writerMutex_)
{
}

LiveStore::Update::~Update()
{
    if (active_ && lock_.owns_lock())
        abort();
}

void
LiveStore::Update::abort()
{
    clare_assert(active_, "abort of a finished update");
    ops_.clear();
    active_ = false;
    if (lock_.owns_lock())
        lock_.unlock();
}

std::uint64_t
LiveStore::Update::commit()
{
    clare_assert(active_, "commit of a finished update");
    active_ = false;
    std::vector<LiveOp> ops = std::move(ops_);
    // On CrashError the update is already finished; the lock releases
    // via the unique_lock on unwind, and nothing was published.
    std::uint64_t gen = owner_->commitOps(std::move(ops), /*log=*/true);
    if (lock_.owns_lock())
        lock_.unlock();
    return gen;
}

void
LiveStore::Update::assertz(const term::Clause &clause)
{
    clare_assert(active_, "assert on a finished update");
    ops_.push_back(owner_->assertOp(LiveOp::Kind::Assertz, clause.view()));
}

void
LiveStore::Update::asserta(const term::Clause &clause)
{
    clare_assert(active_, "assert on a finished update");
    ops_.push_back(owner_->assertOp(LiveOp::Kind::Asserta, clause.view()));
}

bool
LiveStore::Update::retract(const term::TermArena &arena,
                           term::TermRef pattern)
{
    clare_assert(active_, "retract on a finished update");
    const unify::RetractPattern match(arena, pattern, owner_->symbols_);

    // Resolve against the evolving list: the head version's decoded
    // clauses (pinned while they are read) with this transaction's
    // earlier ops applied.  The matched *position* goes into the WAL,
    // so replay — which walks the same evolving list — removes the
    // same clause without re-running unification.
    const term::PredicateId &pred = match.predicate();
    const std::shared_ptr<const StoredPredicate> prev =
        owner_->store_.predicateVersion(pred);
    std::vector<term::ClauseView> clauses =
        decodedClauses(prev.get(), ops_.size());
    for (const LiveOp &op : ops_)
        if (op.pred == pred)
            applyOp(clauses, op);
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        if (!match.matches(clauses[i]))
            continue;
        LiveOp op;
        op.kind = LiveOp::Kind::Retract;
        op.pred = pred;
        op.ordinal = static_cast<std::uint32_t>(i);
        ops_.push_back(std::move(op));
        return true;
    }
    return false;
}

} // namespace clare::crs
