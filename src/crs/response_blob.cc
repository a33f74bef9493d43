#include "crs/response_blob.hh"

#include "support/logging.hh"
#include "support/tlv.hh"

namespace clare::crs {

namespace {

using namespace support::tlv;

// Response field tags (the wire table in net/wire.hh).
constexpr std::uint8_t kRspId = 1;
constexpr std::uint8_t kRspMode = 2;
constexpr std::uint8_t kRspCandidates = 3;
constexpr std::uint8_t kRspAnswers = 4;
constexpr std::uint8_t kRspScanStats = 5;
constexpr std::uint8_t kRspFilterOps = 6;
constexpr std::uint8_t kRspBreakdown = 7;
constexpr std::uint8_t kRspElapsed = 8;
constexpr std::uint8_t kRspFlags = 9;
constexpr std::uint8_t kRspCorruptPages = 10;
constexpr std::uint8_t kRspRequeued = 11;

/** cacheTime, indexTime, filterTime, hostUnifyTime: four u64 ticks. */
constexpr std::uint32_t kBreakdownBytes = 4 * 8;

constexpr std::uint8_t kFlagDegraded = 1u << 0;
constexpr std::uint8_t kFlagResultOverflow = 1u << 1;

void
putOrdinals(std::uint8_t tag, const std::vector<std::uint32_t> &ords,
            std::vector<std::uint8_t> &out)
{
    std::size_t at = openField(tag, out);
    putU32(static_cast<std::uint32_t>(ords.size()), out);
    for (std::uint32_t o : ords)
        putU32(o, out);
    closeField(at, out);
}

std::vector<std::uint32_t>
getOrdinals(const Field &field, FieldReader &reader)
{
    ByteReader bytes{field, reader};
    std::uint32_t count = bytes.u32();
    if ((field.size - 4) / 4 < count)
        reader.fail("ordinal array count " + std::to_string(count) +
                    " overruns its field");
    std::vector<std::uint32_t> ords;
    ords.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        ords.push_back(bytes.u32());
    return ords;
}

} // namespace

void
encodeResponseBlob(std::uint64_t request_id, const RetrievalResponse &r,
                   std::vector<std::uint8_t> &out)
{
    // The id field must come first: patchResponseBlobId and the blob
    // send path rely on it living at kBlobIdOffset.
    std::size_t base = out.size();
    std::size_t at = openField(kRspId, out);
    putU64(request_id, out);
    closeField(at, out);
    clare_assert(out.size() - base == kBlobMinBytes,
                 "response id field drifted from its fixed layout");

    at = openField(kRspMode, out);
    putU8(static_cast<std::uint8_t>(r.mode), out);
    closeField(at, out);

    putOrdinals(kRspCandidates, r.candidates, out);
    putOrdinals(kRspAnswers, r.answers, out);

    at = openField(kRspScanStats, out);
    putU64(r.indexEntriesScanned, out);
    putU64(r.fs1Hits, out);
    putU64(r.clausesExamined, out);
    closeField(at, out);

    at = openField(kRspFilterOps, out);
    putU32(static_cast<std::uint32_t>(r.filterOps.size()), out);
    for (std::uint64_t c : r.filterOps)
        putU64(c, out);
    closeField(at, out);

    at = openField(kRspBreakdown, out);
    putU64(r.breakdown.cacheTime, out);
    putU64(r.breakdown.indexTime, out);
    putU64(r.breakdown.filterTime, out);
    putU64(r.breakdown.hostUnifyTime, out);
    closeField(at, out);

    at = openField(kRspElapsed, out);
    putU64(r.elapsed, out);
    closeField(at, out);

    std::uint8_t flags = 0;
    if (r.degraded)
        flags |= kFlagDegraded;
    if (r.resultOverflow)
        flags |= kFlagResultOverflow;
    at = openField(kRspFlags, out);
    putU8(flags, out);
    closeField(at, out);

    if (r.corruptIndexPages != 0) {
        at = openField(kRspCorruptPages, out);
        putU32(r.corruptIndexPages, out);
        closeField(at, out);
    }
    if (r.satisfiersRequeued != 0) {
        at = openField(kRspRequeued, out);
        putU32(r.satisfiersRequeued, out);
        closeField(at, out);
    }
}

std::vector<std::uint8_t>
encodeResponseBlob(std::uint64_t request_id, const RetrievalResponse &r)
{
    std::vector<std::uint8_t> out;
    encodeResponseBlob(request_id, r, out);
    return out;
}

std::shared_ptr<const std::vector<std::uint8_t>>
bakeResponseBlob(const RetrievalResponse &r)
{
    return std::make_shared<const std::vector<std::uint8_t>>(
        encodeResponseBlob(0, r));
}

void
patchResponseBlobId(std::uint8_t *blob, std::size_t size, std::uint64_t id)
{
    clare_assert(size >= kBlobMinBytes, "blob too small for an id field");
    clare_assert(blob[0] == kRspId, "blob does not start with the id field");
    for (std::size_t i = 0; i < kBlobIdBytes; ++i)
        blob[kBlobIdOffset + i] = static_cast<std::uint8_t>(id >> (8 * i));
}

DecodedResponseBlob
decodeResponseBlob(const std::uint8_t *data, std::size_t size,
                   const std::string &peer)
{
    DecodedResponseBlob decoded;
    RetrievalResponse &r = decoded.response;
    FieldReader reader{data, size, peer, "response"};
    bool sawId = false, sawMode = false;
    Field field;
    while (reader.next(field)) {
        ByteReader bytes{field, reader};
        switch (field.tag) {
          case kRspId:
            decoded.id = bytes.u64();
            sawId = true;
            break;
          case kRspMode: {
            std::uint8_t m = bytes.u8();
            if (m > static_cast<std::uint8_t>(SearchMode::TwoStage))
                reader.fail("search mode byte " + std::to_string(m) +
                            " out of range");
            r.mode = static_cast<SearchMode>(m);
            sawMode = true;
            break;
          }
          case kRspCandidates:
            r.candidates = getOrdinals(field, reader);
            break;
          case kRspAnswers:
            r.answers = getOrdinals(field, reader);
            break;
          case kRspScanStats:
            r.indexEntriesScanned = bytes.u64();
            r.fs1Hits = bytes.u64();
            r.clausesExamined = bytes.u64();
            break;
          case kRspFilterOps: {
            std::uint32_t count = bytes.u32();
            // More ops than we know is a newer peer: read ours, skip
            // the rest.  Fewer is fine too — missing ops stay zero.
            if ((field.size - 4) / 8 < count)
                reader.fail("filter op count " + std::to_string(count) +
                            " overruns its field");
            for (std::uint32_t i = 0; i < count; ++i) {
                std::uint64_t c = bytes.u64();
                if (i < r.filterOps.size())
                    r.filterOps[i] = c;
            }
            break;
          }
          case kRspBreakdown:
            // Exactly the four stage ticks: a field of any other size
            // is damage, never a prefix to read or a tail to skip.
            if (field.size != kBreakdownBytes)
                reader.fail("stage breakdown of " +
                            std::to_string(field.size) + " bytes (want " +
                            std::to_string(kBreakdownBytes) + ")");
            r.breakdown.cacheTime = bytes.u64();
            r.breakdown.indexTime = bytes.u64();
            r.breakdown.filterTime = bytes.u64();
            r.breakdown.hostUnifyTime = bytes.u64();
            break;
          case kRspElapsed:
            r.elapsed = bytes.u64();
            break;
          case kRspFlags: {
            std::uint8_t flags = bytes.u8();
            r.degraded = (flags & kFlagDegraded) != 0;
            r.resultOverflow = (flags & kFlagResultOverflow) != 0;
            break;
          }
          case kRspCorruptPages:
            r.corruptIndexPages = bytes.u32();
            break;
          case kRspRequeued:
            r.satisfiersRequeued = bytes.u32();
            break;
          default:
            break; // unknown tag: skip for forward compatibility
        }
    }
    if (!sawId || !sawMode)
        reader.fail("missing a required field (id/mode)");
    return decoded;
}

} // namespace clare::crs
