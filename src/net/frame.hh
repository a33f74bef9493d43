/**
 * @file
 * The CLARE network frame: the length-framed, CRC-protected envelope
 * every wire message travels in.
 *
 * A frame is a fixed 16-byte header followed by the payload:
 *
 *   offset  size  field
 *        0     4  magic "CLNF" (little-endian 0x464e4c43)
 *        4     1  protocol version (kProtocolVersion)
 *        5     1  frame type (FrameType)
 *        6     2  reserved, must be zero
 *        8     4  payload length in bytes (little-endian)
 *       12     4  CRC-32 of header bytes 0-11 chained with the
 *                  payload (little-endian)
 *
 * The CRC covers the header prefix as well as the payload, so any
 * single flipped bit anywhere in the frame is caught before the
 * payload is trusted: a damaged magic/version/type/reserved byte fails
 * field validation or the chained CRC (a type byte flipped onto
 * another *valid* type is exactly why the prefix is in the CRC), and a
 * damaged length fails the sanity bound or desynchronizes the CRC.  Every validation
 * failure is a typed CorruptionError naming the peer; a short read is a
 * typed IoError.  A receiver that detects either MUST close the
 * connection — framing cannot be resynchronized mid-stream.
 *
 * Payload shapes (see wire.hh for the TLV field codecs):
 *
 *   Request        tagged retrieval request (PIF-encoded goal)
 *   Response       tagged RetrievalResponse + StageBreakdown
 *   Error          error code byte + UTF-8 message
 *   Health         empty probe
 *   HealthReply    JSON document (control plane stays JSON)
 *   BatchRequest   length-prefixed list of Request payloads
 *   BatchResponse  length-prefixed list of Response payloads, in the
 *                  request order of the matching BatchRequest
 */

#ifndef CLARE_NET_FRAME_HH
#define CLARE_NET_FRAME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/errors.hh"

namespace clare::net {

/** "CLNF" as a little-endian 32-bit word. */
constexpr std::uint32_t kFrameMagic = 0x464e4c43u;

/**
 * Protocol version carried by every frame.  Version 2 narrowed the
 * Response stage-breakdown field (wire.hh tag 7) from five ticks to
 * four; a version-1 peer is refused at the frame header.
 */
constexpr std::uint8_t kProtocolVersion = 2;

/** Fixed size of the frame header. */
constexpr std::size_t kFrameHeaderBytes = 16;

/**
 * Upper bound on a payload we are willing to buffer.  Large enough for
 * any realistic response (a response is ~8 bytes per candidate), small
 * enough that a corrupted length field cannot make a peer allocate
 * gigabytes.
 */
constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/** The frame types of the protocol (unchanged since version 1). */
enum class FrameType : std::uint8_t
{
    Request = 1,       ///< tagged retrieval request
    Response = 2,      ///< tagged retrieval response
    Error = 3,         ///< typed failure (code + message)
    Health = 4,        ///< control-plane probe (empty payload)
    HealthReply = 5,   ///< control-plane status (JSON payload)
    BatchRequest = 6,  ///< list of Request payloads (wire.hh)
    BatchResponse = 7, ///< list of Response payloads, request order
};

/** True for a type byte defined by the protocol. */
bool isValidFrameType(std::uint8_t type);

/** A decoded frame header, pending payload verification. */
struct FrameHeader
{
    FrameType type = FrameType::Error;
    std::uint32_t payloadBytes = 0;
    std::uint32_t payloadCrc = 0;
    /** CRC-32 of the raw header prefix (bytes 0-11), the chain seed
     *  verifyFramePayload() continues over the payload. */
    std::uint32_t prefixCrc = 0;
};

/** Append the frame enveloping @p payload to @p out. */
void encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload,
                 std::vector<std::uint8_t> &out);

/**
 * Append the frame enveloping @p payload with the 8 bytes at
 * @p patch_at replaced by the little-endian u64 @p patch_value.
 *
 * This is the zero-copy blob send: a cached response payload
 * (crs/response_blob.hh, baked with request id 0) is framed verbatim
 * while the per-request id is substituted in flight — the CRC chains
 * over the *patched* bytes without materializing a patched copy of
 * the payload first.
 */
void encodeFramePatched(FrameType type, const std::uint8_t *payload,
                        std::size_t size, std::size_t patch_at,
                        std::uint64_t patch_value,
                        std::vector<std::uint8_t> &out);

/**
 * Decode and validate a frame header from exactly kFrameHeaderBytes
 * bytes.  @p peer names the connection for error messages.
 *
 * @throws CorruptionError on bad magic, unsupported version, unknown
 *         type, nonzero reserved bytes, or an insane length
 */
FrameHeader decodeFrameHeader(const std::uint8_t *data,
                              const std::string &peer);

/**
 * Verify @p header's CRC against the delivered payload bytes.
 *
 * @throws CorruptionError when the payload fails its checksum
 */
void verifyFramePayload(const FrameHeader &header,
                        const std::uint8_t *payload, std::size_t size,
                        const std::string &peer);

} // namespace clare::net

#endif // CLARE_NET_FRAME_HH
