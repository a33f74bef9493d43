#include "net/wire.hh"

#include <cstring>

#include "support/tlv.hh"

namespace clare::net {

namespace {

// TLV primitives are shared with the crs response blob codec
// (support/tlv.hh); this file owns only the request/error/batch
// vocabulary.
using namespace support::tlv;

// Request field tags.
constexpr std::uint8_t kReqId = 1;
constexpr std::uint8_t kReqPredicate = 2;
constexpr std::uint8_t kReqGoal = 3;
constexpr std::uint8_t kReqMode = 4;
constexpr std::uint8_t kReqBypassCache = 5;

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Overloaded: return "overloaded";
      case ErrorCode::Unavailable: return "unavailable";
      case ErrorCode::BadRequest: return "bad-request";
      case ErrorCode::Internal: return "internal";
    }
    return "unknown";
}

void
encodeRequest(const WireRequest &request, std::vector<std::uint8_t> &out)
{
    std::size_t at = openField(kReqId, out);
    putU64(request.id, out);
    closeField(at, out);

    at = openField(kReqPredicate, out);
    putU32(request.predicate.functor, out);
    putU32(request.predicate.arity, out);
    closeField(at, out);

    at = openField(kReqGoal, out);
    out.insert(out.end(), request.goalPif.begin(),
               request.goalPif.end());
    closeField(at, out);

    if (request.mode) {
        at = openField(kReqMode, out);
        putU8(static_cast<std::uint8_t>(*request.mode), out);
        closeField(at, out);
    }
    if (request.bypassCache) {
        at = openField(kReqBypassCache, out);
        putU8(1, out);
        closeField(at, out);
    }
}

std::vector<std::uint8_t>
encodeRequest(const WireRequest &request)
{
    std::vector<std::uint8_t> out;
    encodeRequest(request, out);
    return out;
}

WireRequest
decodeRequest(const std::vector<std::uint8_t> &payload,
              const std::string &peer)
{
    WireRequest request;
    decodeRequest(payload, peer, request);
    return request;
}

void
decodeRequest(const std::vector<std::uint8_t> &payload,
              const std::string &peer, WireRequest &request)
{
    request.id = 0;
    request.predicate = {};
    request.goalPif.clear(); // capacity retained across requests
    request.mode.reset();
    request.bypassCache = false;
    FieldReader reader{payload.data(), payload.size(), peer, "request"};
    bool sawId = false, sawPredicate = false, sawGoal = false;
    Field field;
    while (reader.next(field)) {
        ByteReader bytes{field, reader};
        switch (field.tag) {
          case kReqId:
            request.id = bytes.u64();
            sawId = true;
            break;
          case kReqPredicate:
            request.predicate.functor = bytes.u32();
            request.predicate.arity = bytes.u32();
            sawPredicate = true;
            break;
          case kReqGoal:
            request.goalPif.assign(field.data, field.data + field.size);
            sawGoal = true;
            break;
          case kReqMode: {
            std::uint8_t m = bytes.u8();
            if (m > static_cast<std::uint8_t>(crs::SearchMode::TwoStage))
                reader.fail("search mode byte " + std::to_string(m) +
                            " out of range");
            request.mode = static_cast<crs::SearchMode>(m);
            break;
          }
          case kReqBypassCache:
            request.bypassCache = bytes.u8() != 0;
            break;
          default:
            break; // unknown tag: skip for forward compatibility
        }
    }
    if (!sawId || !sawPredicate || !sawGoal)
        reader.fail("missing a required field (id/predicate/goal)");
}

void
encodeResponse(std::uint64_t request_id, const crs::RetrievalResponse &r,
               std::vector<std::uint8_t> &out)
{
    crs::encodeResponseBlob(request_id, r, out);
}

std::vector<std::uint8_t>
encodeResponse(std::uint64_t request_id, const crs::RetrievalResponse &r)
{
    return crs::encodeResponseBlob(request_id, r);
}

WireResponse
decodeResponse(const std::vector<std::uint8_t> &payload,
               const std::string &peer)
{
    crs::DecodedResponseBlob decoded =
        crs::decodeResponseBlob(payload.data(), payload.size(), peer);
    WireResponse wire;
    wire.id = decoded.id;
    wire.response = std::move(decoded.response);
    return wire;
}

std::vector<std::uint8_t>
encodeError(ErrorCode code, const std::string &message)
{
    std::vector<std::uint8_t> out;
    out.reserve(1 + message.size());
    out.push_back(static_cast<std::uint8_t>(code));
    for (char c : message)
        out.push_back(static_cast<std::uint8_t>(c));
    return out;
}

WireError
decodeError(const std::vector<std::uint8_t> &payload,
            const std::string &peer)
{
    if (payload.empty())
        throw CorruptionError(peer, kNoFilePosition, 0,
                              "wire error: empty payload");
    std::uint8_t code = payload[0];
    if (code < static_cast<std::uint8_t>(ErrorCode::Overloaded) ||
        code > static_cast<std::uint8_t>(ErrorCode::Internal))
        throw CorruptionError(peer, kNoFilePosition, 0,
                              "wire error: unknown code " +
                                  std::to_string(code));
    WireError error;
    error.code = static_cast<ErrorCode>(code);
    error.message.assign(payload.begin() + 1, payload.end());
    return error;
}

void
beginBatchPayload(std::uint32_t count, std::vector<std::uint8_t> &out)
{
    putU32(count, out);
}

std::size_t
openBatchItem(std::vector<std::uint8_t> &out)
{
    std::size_t at = out.size();
    putU32(0, out);
    return at;
}

void
closeBatchItem(std::size_t at, std::vector<std::uint8_t> &out)
{
    patchU32(static_cast<std::uint32_t>(out.size() - at - 4), at, out);
}

std::vector<std::uint8_t>
encodeBatchItems(const std::vector<std::vector<std::uint8_t>> &items)
{
    std::size_t total = 4;
    for (const std::vector<std::uint8_t> &item : items)
        total += 4 + item.size();
    std::vector<std::uint8_t> out;
    out.reserve(total);
    beginBatchPayload(static_cast<std::uint32_t>(items.size()), out);
    for (const std::vector<std::uint8_t> &item : items) {
        putU32(static_cast<std::uint32_t>(item.size()), out);
        out.insert(out.end(), item.begin(), item.end());
    }
    return out;
}

std::vector<std::vector<std::uint8_t>>
decodeBatchItems(const std::vector<std::uint8_t> &payload,
                 const std::string &peer)
{
    auto fail = [&](std::size_t at, const std::string &why)
        -> CorruptionError {
        return CorruptionError(peer, kNoFilePosition, at,
                               "wire batch: " + why);
    };
    auto u32At = [&](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(payload[at + i]) << (8 * i);
        return v;
    };
    if (payload.size() < 4)
        throw fail(0, "truncated item count");
    std::uint32_t count = u32At(0);
    // Each item costs at least its 4-byte length prefix, so a count a
    // corrupted byte inflated past the payload is caught before any
    // allocation is sized by it.
    if (count > (payload.size() - 4) / 4)
        throw fail(0, "item count " + std::to_string(count) +
                          " overruns the payload");
    std::vector<std::vector<std::uint8_t>> items;
    items.reserve(count);
    std::size_t at = 4;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (payload.size() - at < 4)
            throw fail(at, "truncated item length");
        std::uint32_t len = u32At(at);
        at += 4;
        if (payload.size() - at < len)
            throw fail(at, "item of " + std::to_string(len) +
                               " bytes overruns the payload");
        items.emplace_back(payload.begin() +
                               static_cast<std::ptrdiff_t>(at),
                           payload.begin() +
                               static_cast<std::ptrdiff_t>(at + len));
        at += len;
    }
    if (at != payload.size())
        throw fail(at, std::to_string(payload.size() - at) +
                           " trailing bytes after the last item");
    return items;
}

bool
responsesIdentical(const crs::RetrievalResponse &a,
                   const crs::RetrievalResponse &b)
{
    return a.mode == b.mode && a.candidates == b.candidates &&
        a.answers == b.answers &&
        a.indexEntriesScanned == b.indexEntriesScanned &&
        a.fs1Hits == b.fs1Hits &&
        a.clausesExamined == b.clausesExamined &&
        a.filterOps == b.filterOps &&
        a.breakdown.cacheTime == b.breakdown.cacheTime &&
        a.breakdown.indexTime == b.breakdown.indexTime &&
        a.breakdown.filterTime == b.breakdown.filterTime &&
        a.breakdown.hostUnifyTime == b.breakdown.hostUnifyTime &&
        a.elapsed == b.elapsed && a.degraded == b.degraded &&
        a.corruptIndexPages == b.corruptIndexPages &&
        a.resultOverflow == b.resultOverflow &&
        a.satisfiersRequeued == b.satisfiersRequeued;
}

} // namespace clare::net
