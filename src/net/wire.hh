/**
 * @file
 * The tagged payload codecs of the CLARE wire protocol.
 *
 * Every Request/Response payload is a sequence of TLV fields: a one-
 * byte tag, a little-endian 32-bit byte length, and the field bytes.
 * Decoders skip fields with unknown tags, so a v1 peer keeps working
 * when a newer peer adds fields — forward compatibility is structural,
 * not negotiated.  Required fields that are absent, and fields whose
 * bytes do not parse, raise a typed CorruptionError naming the peer.
 *
 * Request fields:
 *
 *   tag  field
 *     1  request id (u64) — echoed verbatim in the response
 *     2  predicate (functor u32, arity u32) — duplicated out of the
 *        goal so the router can shard without decoding PIF
 *     3  goal (recursive PIF item stream, term_codec.hh)
 *     4  explicit search mode (u8; absent = server chooses)
 *     5  bypassCache (u8 != 0)
 *
 * Response fields:
 *
 *   tag  field
 *     1  request id (u64)
 *     2  resolved search mode (u8)
 *     3  candidates (u32 count, u32 ordinals)
 *     4  answers (u32 count, u32 ordinals)
 *     5  scan stats (indexEntriesScanned u64, fs1Hits u64,
 *        clausesExamined u64)
 *     6  filter op counts (u32 count, u64 per op)
 *     7  stage breakdown (cacheTime, indexTime, filterTime,
 *        hostUnifyTime — exactly four u64 ticks; any other field
 *        size is a CorruptionError.  Protocol version 1 carried five,
 *        so the frame version was bumped to 2 with this layout)
 *     8  elapsed (u64 ticks)
 *     9  flags (u8: bit0 degraded, bit1 resultOverflow)
 *    10  corruptIndexPages (u32)
 *    11  satisfiersRequeued (u32)
 *
 * The breakdown travels bit-exactly: the exactness contract extends
 * over the wire, so a response relayed through the router carries the
 * same modeled ticks a single-process serve() would have produced.
 *
 * Error payloads are a one-byte ErrorCode followed by a UTF-8 message.
 */

#ifndef CLARE_NET_WIRE_HH
#define CLARE_NET_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crs/api.hh"
#include "crs/response_blob.hh"
#include "term/clause.hh"

namespace clare::net {

/** A retrieval request as it travels the wire (goal kept opaque). */
struct WireRequest
{
    std::uint64_t id = 0;
    term::PredicateId predicate{};
    /** Recursive PIF encoding of the goal (term_codec.hh). */
    std::vector<std::uint8_t> goalPif;
    std::optional<crs::SearchMode> mode;
    bool bypassCache = false;
};

/** Error codes carried by Error frames. */
enum class ErrorCode : std::uint8_t
{
    Overloaded = 1,  ///< admission control shed this request
    Unavailable = 2, ///< no healthy replica could answer
    BadRequest = 3,  ///< the request failed validation
    Internal = 4,    ///< the peer failed while serving
};

/** Human-readable slug of an ErrorCode. */
const char *errorCodeName(ErrorCode code);

/**
 * A peer answered with an Error frame.  Typed so callers can
 * distinguish protocol-level rejection (shedding, bad request) from
 * transport faults (IoError) and damaged bytes (CorruptionError).
 */
class RemoteError : public Error
{
  public:
    RemoteError(ErrorCode code, const std::string &message)
        : Error(std::string(errorCodeName(code)) + ": " + message),
          code_(code)
    {
    }

    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** @name Request payload codec.
 *
 * The appending overload writes into a caller-owned buffer so clients
 * can reuse one encode buffer (and one goalPif buffer) across the
 * requests of a batch instead of allocating per request.
 */
/// @{
void encodeRequest(const WireRequest &request,
                   std::vector<std::uint8_t> &out);
std::vector<std::uint8_t> encodeRequest(const WireRequest &request);
WireRequest decodeRequest(const std::vector<std::uint8_t> &payload,
                          const std::string &peer);
/** Decode into a caller-held request, reusing its goalPif capacity. */
void decodeRequest(const std::vector<std::uint8_t> &payload,
                   const std::string &peer, WireRequest &request);
/// @}

/** @name Response payload codec.
 *
 * A Response payload is exactly a crs response blob
 * (crs/response_blob.hh): these are thin delegations kept for the
 * wire-level vocabulary.  The blob contract is what makes the L3
 * goal cache's pre-encoded entries sendable verbatim.
 */
/// @{
void encodeResponse(std::uint64_t request_id,
                    const crs::RetrievalResponse &r,
                    std::vector<std::uint8_t> &out);
std::vector<std::uint8_t> encodeResponse(std::uint64_t request_id,
                                         const crs::RetrievalResponse &r);

/** A decoded response: the echoed id plus the reconstructed payload. */
struct WireResponse
{
    std::uint64_t id = 0;
    crs::RetrievalResponse response;
};

WireResponse decodeResponse(const std::vector<std::uint8_t> &payload,
                            const std::string &peer);
/// @}

/** @name Error payload codec. */
/// @{
std::vector<std::uint8_t> encodeError(ErrorCode code,
                                      const std::string &message);

struct WireError
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

WireError decodeError(const std::vector<std::uint8_t> &payload,
                      const std::string &peer);
/// @}

/** @name Batch payload codec.
 *
 * A BatchRequest/BatchResponse payload is a u32 item count followed by
 * count length-prefixed (u32) item payloads.  Each item is a complete
 * Request or Response payload, byte-for-byte what a single-frame peer
 * would have sent — so a router can scatter a batch across shards and
 * gather the item payloads back verbatim, and the per-item bit-identity
 * contract composes exactly as it does for single frames.
 */
/// @{
std::vector<std::uint8_t>
encodeBatchItems(const std::vector<std::vector<std::uint8_t>> &items);
std::vector<std::vector<std::uint8_t>>
decodeBatchItems(const std::vector<std::uint8_t> &payload,
                 const std::string &peer);

/**
 * Incremental batch-payload builder: append the item count, then for
 * each item open a length slot, append the item payload in place, and
 * close the slot.  Skips the vector<vector> staging copy the
 * all-at-once encodeBatchItems needs.
 */
void beginBatchPayload(std::uint32_t count, std::vector<std::uint8_t> &out);
std::size_t openBatchItem(std::vector<std::uint8_t> &out);
void closeBatchItem(std::size_t at, std::vector<std::uint8_t> &out);
/// @}

/**
 * Field-by-field equality of two responses, ignoring the server-local
 * trace handle (span ids never travel).  This is the wire round-trip
 * and router bit-identity predicate, shared by tests and the smoke
 * client.
 */
bool responsesIdentical(const crs::RetrievalResponse &a,
                        const crs::RetrievalResponse &b);

} // namespace clare::net

#endif // CLARE_NET_WIRE_HH
