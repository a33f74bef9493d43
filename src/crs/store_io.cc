#include "crs/store_io.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "storage/file_io.hh"
#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::crs {

namespace fs = std::filesystem;

std::string
predicateFileStem(const term::PredicateId &pred)
{
    // Functor names can contain anything; file stems use the id.
    return "pred_" + std::to_string(pred.functor) + "_" +
        std::to_string(pred.arity);
}

namespace {

/** One pred line of the manifest (sizes are -1 in v2 manifests). */
struct ManifestEntry
{
    std::uint32_t functor = 0;
    std::uint32_t arity = 0;
    std::string stem;
    long long kbcBytes = -1;
    long long idxBytes = -1;
};

long long
sizeOnDisk(const fs::path &path)
{
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    return ec ? -1 : static_cast<long long>(size);
}

/**
 * Cross-check the manifest's pred entries against the store
 * directory.  Returns the full list of discrepancies — missing files,
 * size mismatches, stray pred_* files the manifest does not claim —
 * so one load attempt diagnoses the whole store.
 */
std::vector<std::string>
auditStoreDirectory(const std::string &directory,
                    const std::vector<ManifestEntry> &entries)
{
    std::vector<std::string> problems;
    std::map<std::string, long long> expected; // file name -> size
    for (const ManifestEntry &e : entries) {
        if (!expected.emplace(e.stem + ".kbc", e.kbcBytes).second)
            problems.push_back("duplicate manifest entry for '" +
                               e.stem + "'");
        expected.emplace(e.stem + ".idx", e.idxBytes);
    }

    std::map<std::string, long long> present;
    std::error_code ec;
    for (const auto &dirent : fs::directory_iterator(directory, ec)) {
        std::string name = dirent.path().filename().string();
        std::string ext = dirent.path().extension().string();
        if (name.rfind("pred_", 0) == 0 &&
            (ext == ".kbc" || ext == ".idx"))
            present[name] = sizeOnDisk(dirent.path());
    }
    if (ec) {
        problems.push_back("cannot list directory: " + ec.message());
        return problems;
    }

    for (const auto &[name, size] : expected) {
        auto it = present.find(name);
        if (it == present.end()) {
            problems.push_back("missing file '" + name + "'");
        } else if (size >= 0 && it->second != size) {
            problems.push_back("'" + name + "' is " +
                               std::to_string(it->second) +
                               " bytes, manifest says " +
                               std::to_string(size));
        }
    }
    for (const auto &[name, size] : present) {
        (void)size;
        if (expected.find(name) == expected.end())
            problems.push_back("extra file '" + name +
                               "' not in manifest");
    }
    return problems;
}

} // namespace

namespace {

/**
 * Shared body of saveStore/saveStoreSlice: persist @p preds (every
 * store predicate, or a slice's subset) plus the full symbol table.
 */
void
saveStoreImpl(const std::string &directory, const PredicateStore &store,
              const term::SymbolTable &symbols,
              const std::vector<term::PredicateId> &preds,
              const StoreWalInfo *wal)
{
    std::error_code ec;
    fs::create_directories(directory, ec);
    if (ec)
        throw IoError(directory,
                      "cannot create store directory: " + ec.message());

    storage::saveSymbolTable(directory + "/symbols.tbl", symbols);

    // Everything below the version header goes through one CRC: the
    // scw line parameterizes the codeword hashing, so an unnoticed
    // flip there would rebuild a generator whose query signatures
    // match nothing — silently empty FS1 results, not an error.
    const scw::ScwConfig &config = store.generator().config();
    std::ostringstream manifest;
    manifest << "index-format " << scw::kIndexFormatVersion << '\n';
    manifest << "scw " << config.fieldBits << ' ' << config.bitsPerTerm
             << ' ' << config.encodedArgs << ' ' << config.seed << '\n';
    if (wal != nullptr && wal->present)
        manifest << "wal " << wal->appliedLsn << '\n';
    for (const term::PredicateId &pred : preds) {
        // Hold the head version for the whole write, so a concurrent
        // commit cannot retire what is being saved.
        const std::shared_ptr<const StoredPredicate> head =
            store.predicateVersion(pred);
        const StoredPredicate &stored = *head;
        std::string stem = predicateFileStem(pred);
        std::string kbc = directory + "/" + stem + ".kbc";
        std::string idx = directory + "/" + stem + ".idx";
        storage::saveClauseFile(kbc, stored.clauses);
        // The framed .idx payload is the raw entry image followed by
        // the bit-sliced plane section (index format v3).  Reuse the
        // store's plane only when it covers the whole index — a live
        // composite head's base plane stops at baseEntries, and
        // persisting it would frame a plane that disagrees with the
        // entry image; such heads get a fresh full transpose (this is
        // where checkpointing folds the delta mini-plane away).
        std::vector<std::uint8_t> idx_payload(stored.index.image().begin(),
                                              stored.index.image().end());
        if (stored.sliced != nullptr &&
            stored.sliced->entryCount() == stored.index.entryCount()) {
            stored.sliced->serialize(idx_payload);
        } else {
            scw::BitSlicedIndex::build(store.generator(), stored.index)
                .serialize(idx_payload);
        }
        storage::writeFramedBytes(idx, idx_payload);
        manifest << "pred " << pred.functor << ' ' << pred.arity << ' '
                 << stem << ' ' << sizeOnDisk(kbc) << ' '
                 << sizeOnDisk(idx) << '\n';
    }
    std::ofstream out(directory + "/manifest.txt");
    if (!out)
        throw IoError(directory + "/manifest.txt",
                      "cannot open for writing");
    const std::string body = manifest.str();
    out << "clare-store " << kStoreManifestVersion << '\n'
        << "manifest-crc "
        << support::crc32(
               reinterpret_cast<const std::uint8_t *>(body.data()),
               body.size())
        << '\n'
        << body;
}

} // namespace

void
saveStore(const std::string &directory, const PredicateStore &store,
          const term::SymbolTable &symbols, const StoreWalInfo *wal)
{
    saveStoreImpl(directory, store, symbols, store.predicates(), wal);
}

void
saveStoreSlice(const std::string &directory, const PredicateStore &store,
               const term::SymbolTable &symbols,
               const std::vector<term::PredicateId> &predicateSet,
               const StoreWalInfo *wal)
{
    for (const term::PredicateId &pred : predicateSet)
        if (!store.has(pred))
            throw Error("slice predicate " +
                        std::to_string(pred.functor) + "/" +
                        std::to_string(pred.arity) +
                        " is not in the store");
    saveStoreImpl(directory, store, symbols, predicateSet, wal);
}

PredicateStore
loadStore(const std::string &directory, term::SymbolTable &symbols,
          StoreWalInfo *wal)
{
    storage::loadSymbolTable(directory + "/symbols.tbl", symbols);

    const std::string manifest_path = directory + "/manifest.txt";
    std::string content;
    {
        std::ifstream file(manifest_path);
        if (!file)
            throw IoError(manifest_path, "cannot open for reading");
        std::ostringstream slurp;
        slurp << file.rdbuf();
        content = slurp.str();
    }
    std::istringstream in(content);

    auto bad_manifest = [&](const std::string &why) -> CorruptionError {
        return CorruptionError(manifest_path, kNoFilePosition,
                               kNoFilePosition, why);
    };

    std::string line;
    std::string word;
    int version = 0;
    {
        if (!std::getline(in, line))
            throw bad_manifest("empty manifest");
        std::istringstream header(line);
        if (!(header >> word >> version) || word != "clare-store")
            throw bad_manifest("unsupported header '" + line + "'");
    }
    if (version < kStoreManifestVersionCompat ||
        version > kStoreManifestVersion) {
        throw bad_manifest(
            "manifest version " + std::to_string(version) +
            " (this build reads v" +
            std::to_string(kStoreManifestVersionCompat) + "-v" +
            std::to_string(kStoreManifestVersion) + ")");
    }

    // v3 manifests carry a CRC over every byte after the crc line
    // itself, so a flipped bit anywhere in the body — including the
    // scw parameters, whose corruption would otherwise just produce
    // an index that silently matches nothing — is a typed error.
    if (version >= 3) {
        if (!std::getline(in, line))
            throw bad_manifest("missing manifest-crc line");
        std::istringstream crc_line(line);
        std::uint64_t stored = 0;
        if (!(crc_line >> word >> stored) || word != "manifest-crc")
            throw bad_manifest("missing manifest-crc line, got '" +
                               line + "'");
        std::streamoff body_at = in.tellg();
        if (body_at < 0)
            body_at = static_cast<std::streamoff>(content.size());
        std::uint32_t got = support::crc32(
            reinterpret_cast<const std::uint8_t *>(content.data()) +
                body_at,
            content.size() - static_cast<std::size_t>(body_at));
        if (got != stored)
            throw bad_manifest(
                "manifest checksum mismatch (stored " +
                std::to_string(stored) + ", computed " +
                std::to_string(got) + ")");
    }

    // The signature encoding is versioned separately from the
    // manifest: old images decoded against new token hashing would
    // match garbage, so a format skew is fatal to the load.  In v2
    // manifests the store version doubled as the index format.
    int index_format = version;
    if (version >= 3) {
        if (!std::getline(in, line))
            throw bad_manifest("missing index-format line");
        std::istringstream fmt(line);
        if (!(fmt >> word >> index_format) || word != "index-format")
            throw bad_manifest("missing index-format line, got '" +
                               line + "'");
    }
    if (index_format < scw::kIndexFormatVersionCompat ||
        index_format > scw::kIndexFormatVersion) {
        throw bad_manifest(
            "store uses index format " + std::to_string(index_format) +
            " but this build reads formats " +
            std::to_string(scw::kIndexFormatVersionCompat) + "-" +
            std::to_string(scw::kIndexFormatVersion) +
            "; rebuild the store to regenerate its signatures");
    }

    scw::ScwConfig config;
    if (!std::getline(in, line))
        throw bad_manifest("missing scw line");
    {
        std::istringstream scw_line(line);
        if (!(scw_line >> word >> config.fieldBits >> config.bitsPerTerm
              >> config.encodedArgs >> config.seed) ||
            word != "scw")
            throw bad_manifest("missing scw line, got '" + line + "'");
    }

    std::vector<ManifestEntry> entries;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        // v4: the optional WAL watermark line (replay skips records
        // already folded into the checkpointed predicate files).
        if (version >= 4 && line.rfind("wal ", 0) == 0) {
            std::istringstream wal_line(line);
            std::uint64_t applied = 0;
            if (!(wal_line >> word >> applied))
                throw bad_manifest("malformed wal line '" + line + "'");
            if (wal != nullptr) {
                wal->present = true;
                wal->appliedLsn = applied;
            }
            continue;
        }
        std::istringstream pred_line(line);
        ManifestEntry e;
        if (!(pred_line >> word >> e.functor >> e.arity >> e.stem) ||
            word != "pred")
            throw bad_manifest("unexpected entry '" + line + "'");
        if (version >= 3 &&
            !(pred_line >> e.kbcBytes >> e.idxBytes))
            throw bad_manifest("pred line missing file sizes: '" +
                               line + "'");
        entries.push_back(std::move(e));
    }

    // Audit the whole directory before touching any predicate file:
    // every discrepancy is collected into one error so a damaged
    // store is diagnosed in a single load attempt.
    std::vector<std::string> problems =
        auditStoreDirectory(directory, entries);
    if (!problems.empty()) {
        std::string joined;
        for (const std::string &p : problems) {
            if (!joined.empty())
                joined += "; ";
            joined += p;
        }
        throw CorruptionError(directory, kNoFilePosition,
                              kNoFilePosition,
                              std::to_string(problems.size()) +
                              " store discrepanc" +
                              (problems.size() == 1 ? "y" : "ies") +
                              ": " + joined);
    }

    PredicateStore store(symbols, scw::CodewordGenerator(config));
    for (const ManifestEntry &e : entries) {
        storage::ClauseFile clauses = storage::loadClauseFile(
            directory + "/" + e.stem + ".kbc");
        term::PredicateId pred{e.functor, e.arity};
        if (!(clauses.predicate() == pred))
            throw CorruptionError(
                directory + "/" + e.stem + ".kbc", kNoFilePosition,
                kNoFilePosition,
                "holds predicate " +
                std::to_string(clauses.predicate().functor) + "/" +
                std::to_string(clauses.predicate().arity) +
                ", manifest says " + std::to_string(e.functor) + "/" +
                std::to_string(e.arity));

        // Rebuild the secondary file from the persisted image by
        // re-deriving entries against the clause directory (the image
        // is position-independent, so a size check suffices).  v3
        // images are page-framed; v2 images are raw.
        const std::string idx_path = directory + "/" + e.stem + ".idx";
        std::vector<std::uint8_t> idx_payload = version >= 3
            ? storage::readFramedBytes(idx_path)
            : storage::readBytes(idx_path);
        scw::CodewordGenerator generator(config);
        std::size_t entry_bytes = generator.signatureBytes() + 8;
        std::size_t entry_total = entry_bytes * clauses.clauseCount();
        // Index format v2 payloads are exactly the entry image; v3
        // payloads carry the bit-sliced plane section after it.
        if (index_format < 3
                ? idx_payload.size() != entry_total
                : idx_payload.size() <= entry_total)
            throw CorruptionError(
                idx_path, kNoFilePosition, kNoFilePosition,
                "holds " + std::to_string(idx_payload.size()) +
                " payload bytes, expected " +
                (index_format < 3 ? "" : "more than ") +
                std::to_string(entry_total));
        std::vector<std::uint8_t> index_image(
            idx_payload.begin(),
            idx_payload.begin() +
                static_cast<std::ptrdiff_t>(entry_total));
        scw::SecondaryFile index = scw::SecondaryFile::fromImage(
            std::move(index_image), clauses.clauseCount(), entry_bytes);

        std::shared_ptr<const scw::BitSlicedIndex> sliced;
        if (index_format >= 3) {
            std::size_t at = entry_total;
            sliced = std::make_shared<scw::BitSlicedIndex>(
                scw::BitSlicedIndex::deserialize(idx_payload, at,
                                                 generator, index,
                                                 idx_path));
            if (at != idx_payload.size())
                throw CorruptionError(
                    idx_path, kNoFilePosition, kNoFilePosition,
                    std::to_string(idx_payload.size() - at) +
                    " trailing bytes after the sliced plane section");
        }

        store.addStored(pred, std::move(clauses), std::move(index),
                        std::move(sliced));
    }
    store.finalize();
    return store;
}

PredicateStore
openStore(const std::string &root, term::SymbolTable &symbols,
          StoreWalInfo *wal)
{
    const std::string current_path = root + "/CURRENT";
    std::error_code ec;
    if (!fs::exists(current_path, ec))
        return loadStore(root, symbols, wal);

    std::string name;
    {
        std::ifstream current(current_path);
        if (!current || !std::getline(current, name) || name.empty())
            throw CorruptionError(current_path, kNoFilePosition,
                                  kNoFilePosition,
                                  "empty or unreadable CURRENT file");
    }
    // CURRENT names a sibling subdirectory, nothing else: a corrupted
    // pointer must not walk the filesystem.
    if (name.find('/') != std::string::npos ||
        name.find("..") != std::string::npos)
        throw CorruptionError(current_path, kNoFilePosition,
                              kNoFilePosition,
                              "CURRENT names an invalid path '" + name +
                              "'");
    const std::string directory = root + "/" + name;
    if (!fs::exists(directory + "/manifest.txt", ec))
        throw CorruptionError(current_path, kNoFilePosition,
                              kNoFilePosition,
                              "CURRENT names '" + name +
                              "' but no such checkpoint exists");
    return loadStore(directory, symbols, wal);
}

} // namespace clare::crs
