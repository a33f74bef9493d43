#include "storage/file_io.hh"

#include <cstdio>
#include <cstring>
#include <memory>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "support/crc32.hh"
#include "support/logging.hh"

namespace clare::storage {

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
    return v;
}

[[noreturn]] void
corrupt(const std::string &path, std::uint64_t page,
        std::uint64_t offset, const std::string &why)
{
    throw CorruptionError(path, page, offset, why);
}

/**
 * Verify the per-page checksums of @p payload against the table at
 * @p crc_at of @p in.  @p payload_at is the payload's byte offset in
 * the file, used to report absolute corruption locations.
 */
void
verifyPages(const std::string &path, const std::vector<std::uint8_t> &in,
            std::size_t crc_at, std::size_t payload_at,
            std::size_t payload_size, std::uint32_t page_bytes,
            std::uint32_t n_pages)
{
    for (std::uint32_t p = 0; p < n_pages; ++p) {
        std::size_t page_off = static_cast<std::size_t>(p) * page_bytes;
        std::size_t n = std::min<std::size_t>(page_bytes,
                                              payload_size - page_off);
        std::uint32_t want = getU32(in, crc_at + 4u * p);
        std::uint32_t got = support::crc32(
            in.data() + payload_at + page_off, n);
        if (got != want)
            corrupt(path, p, payload_at + page_off,
                    "page checksum mismatch (stored " +
                    std::to_string(want) + ", computed " +
                    std::to_string(got) + ")");
    }
}

std::uint32_t
pageCount(std::size_t payload_size, std::uint32_t page_bytes)
{
    return static_cast<std::uint32_t>(
        (payload_size + page_bytes - 1) / page_bytes);
}

void
putPageCrcs(std::vector<std::uint8_t> &out,
            std::span<const std::uint8_t> payload,
            std::uint32_t page_bytes)
{
    for (std::uint32_t c : support::pageChecksums(
             payload.data(), payload.size(), page_bytes))
        putU32(out, c);
}

} // namespace

void
syncFile(std::FILE *f, const std::string &path)
{
    if (std::fflush(f) != 0)
        throw IoError(path, "cannot flush");
#ifndef _WIN32
    if (::fsync(::fileno(f)) != 0)
        throw IoError(path, "cannot fsync");
#endif
}

void
syncDirectory(const std::string &path)
{
#ifndef _WIN32
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#endif
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "wb"), &std::fclose);
    if (!f)
        throw IoError(path, "cannot open for writing");
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size()) {
        throw IoError(path, "short write");
    }
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        throw IoError(path, "cannot open for reading");
    std::fseek(f.get(), 0, SEEK_END);
    long size = std::ftell(f.get());
    if (size < 0)
        throw IoError(path, "cannot size file");
    std::fseek(f.get(), 0, SEEK_SET);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0 &&
        std::fread(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size()) {
        throw IoError(path, "short read");
    }
    return bytes;
}

// ---------------------------------------------------------------------
// Framed raw bytes (secondary files).
//
//   u32 magic "CLFR"   u32 version   u32 payload_size
//   u32 page_bytes     u32 n_pages   u32 header_crc (bytes [0,20))
//   u32 crc[n_pages]   u8 payload[payload_size]
// ---------------------------------------------------------------------

void
writeFramedBytes(const std::string &path,
                 const std::vector<std::uint8_t> &bytes)
{
    const std::uint32_t page = support::kChecksumPageBytes;
    std::vector<std::uint8_t> out;
    putU32(out, kFramedMagic);
    putU32(out, kFramedVersion);
    putU32(out, static_cast<std::uint32_t>(bytes.size()));
    putU32(out, page);
    putU32(out, pageCount(bytes.size(), page));
    putU32(out, support::crc32(out.data(), out.size()));
    putPageCrcs(out, bytes, page);
    out.insert(out.end(), bytes.begin(), bytes.end());
    writeBytes(path, out);
}

std::vector<std::uint8_t>
readFramedBytes(const std::string &path)
{
    std::vector<std::uint8_t> in = readBytes(path);
    if (in.size() < 24)
        corrupt(path, kNoFilePosition, in.size(),
                "too short to hold a frame header");
    if (getU32(in, 0) != kFramedMagic)
        corrupt(path, kNoFilePosition, 0, "bad frame magic");
    if (getU32(in, 4) != kFramedVersion)
        corrupt(path, kNoFilePosition, 4, "unsupported frame version " +
                std::to_string(getU32(in, 4)));
    if (getU32(in, 20) != support::crc32(in.data(), 20))
        corrupt(path, kNoFilePosition, 20, "frame header checksum "
                "mismatch");
    std::uint32_t payload_size = getU32(in, 8);
    std::uint32_t page_bytes = getU32(in, 12);
    std::uint32_t n_pages = getU32(in, 16);
    if (page_bytes == 0 || n_pages != pageCount(payload_size, page_bytes))
        corrupt(path, kNoFilePosition, 12, "incoherent page geometry");
    std::size_t payload_at = 24u + 4u * static_cast<std::size_t>(n_pages);
    if (in.size() != payload_at + payload_size)
        corrupt(path, kNoFilePosition, in.size(),
                "truncated payload (" +
                std::to_string(in.size() - std::min(in.size(),
                                                    payload_at)) +
                " of " + std::to_string(payload_size) + " bytes)");
    verifyPages(path, in, 24, payload_at, payload_size, page_bytes,
                n_pages);
    return std::vector<std::uint8_t>(
        in.begin() + static_cast<std::ptrdiff_t>(payload_at), in.end());
}

// ---------------------------------------------------------------------
// Clause files.
//
// v2: u32 magic  u32 version  u32 functor  u32 arity  u32 count
//     u32 image_size  u32 page_bytes  u32 n_pages
//     u32 header_crc (bytes [0,32))  u32 crc[n_pages]  u8 image[]
// v1: u32 magic  u32 version  u32 functor  u32 arity  u32 count
//     u32 image_size  u8 image[]           (read-compat only)
// ---------------------------------------------------------------------

void
saveClauseFile(const std::string &path, const ClauseFile &file)
{
    const std::uint32_t page = support::kChecksumPageBytes;
    std::vector<std::uint8_t> out;
    putU32(out, kClauseFileMagic);
    putU32(out, kClauseFileVersion);
    putU32(out, file.predicate().functor);
    putU32(out, file.predicate().arity);
    putU32(out, static_cast<std::uint32_t>(file.clauseCount()));
    putU32(out, static_cast<std::uint32_t>(file.image().size()));
    putU32(out, page);
    putU32(out, pageCount(file.image().size(), page));
    putU32(out, support::crc32(out.data(), out.size()));
    putPageCrcs(out, file.image(), page);
    out.insert(out.end(), file.image().begin(), file.image().end());
    writeBytes(path, out);
}

ClauseFile
loadClauseFile(const std::string &path)
{
    std::vector<std::uint8_t> in = readBytes(path);
    if (in.size() < 24)
        corrupt(path, kNoFilePosition, in.size(),
                "too short to be a clause file");
    if (getU32(in, 0) != kClauseFileMagic)
        corrupt(path, kNoFilePosition, 0, "bad magic number");
    std::uint32_t version = getU32(in, 4);
    if (version != kClauseFileVersion &&
        version != kClauseFileVersionCompat) {
        corrupt(path, kNoFilePosition, 4, "unsupported version " +
                std::to_string(version) + " (this build reads v" +
                std::to_string(kClauseFileVersionCompat) + "-v" +
                std::to_string(kClauseFileVersion) + ")");
    }
    std::uint32_t functor = getU32(in, 8);
    std::uint32_t arity = getU32(in, 12);
    std::uint32_t count = getU32(in, 16);
    std::uint32_t image_size = getU32(in, 20);

    std::size_t image_at = 24;
    if (version == kClauseFileVersion) {
        if (in.size() < 36)
            corrupt(path, kNoFilePosition, in.size(),
                    "truncated v2 header");
        if (getU32(in, 32) != support::crc32(in.data(), 32))
            corrupt(path, kNoFilePosition, 32,
                    "header checksum mismatch");
        std::uint32_t page_bytes = getU32(in, 24);
        std::uint32_t n_pages = getU32(in, 28);
        if (page_bytes == 0 ||
            n_pages != pageCount(image_size, page_bytes)) {
            corrupt(path, kNoFilePosition, 24,
                    "incoherent page geometry");
        }
        image_at = 36u + 4u * static_cast<std::size_t>(n_pages);
        if (in.size() != image_at + image_size)
            corrupt(path, kNoFilePosition, in.size(),
                    "truncated (" +
                    std::to_string(in.size() -
                                   std::min(in.size(), image_at)) +
                    " of " + std::to_string(image_size) +
                    " image bytes)");
        verifyPages(path, in, 36, image_at, image_size, page_bytes,
                    n_pages);
    } else if (in.size() != image_at + image_size) {
        corrupt(path, kNoFilePosition, in.size(),
                "truncated (" +
                std::to_string(in.size() - std::min(in.size(), image_at))
                + " of " + std::to_string(image_size) + " image bytes)");
    }

    std::vector<std::uint8_t> image(
        in.begin() + static_cast<std::ptrdiff_t>(image_at), in.end());

    // Re-derive the record directory by walking the image.  With a v2
    // checksum pass behind us a walk failure means a writer bug, but
    // v1 images are unverified, so every structural violation is a
    // typed error rather than an assert.
    std::vector<ClauseRecord> records;
    std::size_t offset = 0;
    while (offset < image.size()) {
        ClauseRecord rec;
        try {
            rec = ClauseFile::parseHeader(image, offset);
        } catch (const FatalError &e) {
            corrupt(path, offset / support::kChecksumPageBytes,
                    image_at + offset, e.what());
        }
        if (rec.functor != functor || rec.arity != arity)
            corrupt(path, offset / support::kChecksumPageBytes,
                    image_at + offset,
                    "record " + std::to_string(rec.ordinal) +
                    " does not match the file predicate");
        records.push_back(rec);
        offset += rec.length;
    }
    if (records.size() != count)
        corrupt(path, kNoFilePosition, kNoFilePosition,
                "directory count " + std::to_string(records.size()) +
                " != header count " + std::to_string(count));
    records.shrink_to_fit();
    ClauseFile file;
    file.predicate_ = term::PredicateId{functor, arity};
    file.image_ = support::SharedPrefix<std::uint8_t>(std::move(image));
    file.records_ =
        support::SharedPrefix<ClauseRecord>(std::move(records));
    return file;
}

// ---------------------------------------------------------------------
// Symbol tables.
//
// v2: u32 magic "CLSY"  u32 version  u32 atoms  u32 floats
//     u32 payload_crc (seeded with the crc of bytes [0,16), so the
//     counts are covered too)  u8 payload[]
// v1: u32 magic  u32 version  u32 atoms  u32 floats  u8 payload[]
// ---------------------------------------------------------------------

void
saveSymbolTable(const std::string &path,
                const term::SymbolTable &symbols)
{
    std::vector<std::uint8_t> payload;
    for (std::uint32_t i = 0; i < symbols.atomCount(); ++i) {
        const std::string &name = symbols.name(i);
        putU32(payload, static_cast<std::uint32_t>(name.size()));
        payload.insert(payload.end(), name.begin(), name.end());
    }
    for (std::uint32_t i = 0; i < symbols.floatCount(); ++i) {
        double v = symbols.floatValue(i);
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        putU32(payload, static_cast<std::uint32_t>(bits));
        putU32(payload, static_cast<std::uint32_t>(bits >> 32));
    }

    std::vector<std::uint8_t> out;
    putU32(out, kSymbolFileMagic);
    putU32(out, kSymbolFileVersion);
    putU32(out, static_cast<std::uint32_t>(symbols.atomCount()));
    putU32(out, static_cast<std::uint32_t>(symbols.floatCount()));
    putU32(out, support::crc32(payload.data(), payload.size(),
                               support::crc32(out.data(), out.size())));
    out.insert(out.end(), payload.begin(), payload.end());
    writeBytes(path, out);
}

void
loadSymbolTable(const std::string &path, term::SymbolTable &symbols)
{
    if (symbols.atomCount() != 2 || symbols.floatCount() != 0)
        clare_fatal("symbol table must be fresh before loading '%s'",
                    path.c_str());
    std::vector<std::uint8_t> in = readBytes(path);
    if (in.size() < 16 || getU32(in, 0) != kSymbolFileMagic)
        corrupt(path, kNoFilePosition, 0, "not a symbol table file");
    std::uint32_t version = getU32(in, 4);
    if (version != 1 && version != kSymbolFileVersion)
        corrupt(path, kNoFilePosition, 4, "unsupported version " +
                std::to_string(version));
    std::uint32_t atoms = getU32(in, 8);
    std::uint32_t floats = getU32(in, 12);
    std::size_t at = 16;
    if (version == kSymbolFileVersion) {
        if (in.size() < 20)
            corrupt(path, kNoFilePosition, in.size(),
                    "truncated v2 header");
        at = 20;
        std::uint32_t want = getU32(in, 16);
        std::uint32_t got = support::crc32(in.data() + at,
                                           in.size() - at,
                                           support::crc32(in.data(), 16));
        if (got != want)
            corrupt(path, kNoFilePosition, at,
                    "payload checksum mismatch (stored " +
                    std::to_string(want) + ", computed " +
                    std::to_string(got) + ")");
    }
    for (std::uint32_t i = 0; i < atoms; ++i) {
        if (at + 4 > in.size())
            corrupt(path, kNoFilePosition, at,
                    "truncated in atom names");
        std::uint32_t len = getU32(in, at);
        at += 4;
        if (at + len > in.size() || at + len < at)
            corrupt(path, kNoFilePosition, at,
                    "truncated in atom names");
        std::string name(in.begin() + static_cast<std::ptrdiff_t>(at),
                         in.begin() + static_cast<std::ptrdiff_t>(
                             at + len));
        at += len;
        term::SymbolId id = symbols.intern(name);
        if (id != i)
            corrupt(path, kNoFilePosition, at,
                    "atom '" + name + "' loaded with id " +
                    std::to_string(id) + ", expected " +
                    std::to_string(i));
    }
    for (std::uint32_t i = 0; i < floats; ++i) {
        if (at + 8 > in.size())
            corrupt(path, kNoFilePosition, at,
                    "truncated in float constants");
        std::uint64_t bits = getU32(in, at) |
            (static_cast<std::uint64_t>(getU32(in, at + 4)) << 32);
        at += 8;
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        term::FloatId id = symbols.internFloat(v);
        if (id != i)
            corrupt(path, kNoFilePosition, at,
                    "float " + std::to_string(i) + " loaded out of "
                    "order");
    }
}

} // namespace clare::storage
