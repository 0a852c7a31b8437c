#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>

#include "puppies/common/bytes.h"
#include "puppies/common/error.h"
#include "puppies/psp/psp.h"
#include "puppies/transform/transform.h"

namespace puppies::net {

/// The PUPPIES serving protocol (DESIGN.md §12): length-prefixed binary
/// frames over a byte stream. Every frame — request or response — carries a
/// fixed 24-byte big-endian header followed by `payload_len` payload bytes:
///
///   offset  size  field
///   0       4     magic 0x50555050 ("PUPP")
///   4       1     version (kVersion)
///   5       1     type: request op (Op) or response status (Status)
///   6       2     reserved, must be 0
///   8       8     request id (client-chosen; echoed verbatim in the reply)
///   16      4     deadline_ms (requests: 0 = server default; responses: 0)
///   20      4     payload_len
///
/// Framing is *bounded*: a receiver enforces `max_payload` before ever
/// allocating for the payload (the same bounded-allocation guarantee the
/// JPEG parser gives via PUPPIES_MAX_PIXELS). An oversized frame is skipped
/// — its declared payload is consumed without buffering — and surfaced so
/// the server can reply kTooLarge and keep the connection; garbage (bad
/// magic/version/reserved) means framing is lost and the connection must
/// close.
inline constexpr std::uint32_t kMagic = 0x50555050;  // "PUPP"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;

/// Request operations (frame `type` for client->server frames).
enum class Op : std::uint8_t {
  kUpload = 1,    ///< payload: blob jfif, blob public_params -> str id
  kApply = 2,     ///< payload: str id, u8 mode, i32 quality, chain -> empty
  kDownload = 3,  ///< payload: str id -> DownloadReply
  kStats = 4,     ///< payload: empty -> str metrics JSON
};

/// Response statuses (frame `type` for server->client frames). The high bit
/// distinguishes a response from a request, so a frame's direction is
/// self-describing.
enum class Status : std::uint8_t {
  kOk = 0x80,
  kError = 0x81,             ///< payload: str message (request failed)
  kBusy = 0x82,              ///< admission control refused; retry later
  kDeadlineExceeded = 0x83,  ///< expired before the dispatcher ran it
  kTooLarge = 0x84,          ///< payload exceeded the server's byte cap
  kBadRequest = 0x85,        ///< unknown op / malformed payload
};

const char* to_string(Op op);
const char* to_string(Status s);

/// Framing is lost (bad magic/version/reserved field): the stream cannot be
/// re-synchronized and the connection must close.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what)
      : Error("protocol error: " + what) {}
};

/// The server refused a request with Status::kBusy (admission control).
class ServerBusy : public Error {
 public:
  ServerBusy() : Error("server busy: admission control refused the request") {}
};

/// The server refused a request with Status::kDeadlineExceeded.
class DeadlineExceeded : public Error {
 public:
  DeadlineExceeded() : Error("deadline exceeded before the request ran") {}
};

/// The server answered kError / kBadRequest / kTooLarge; carries the
/// server's message.
class RemoteError : public Error {
 public:
  explicit RemoteError(const std::string& what)
      : Error("remote error: " + what) {}
};

struct FrameHeader {
  std::uint8_t type = 0;  ///< Op or Status raw value
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;
  std::uint32_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  Bytes payload;
  /// True when the declared payload exceeded the assembler's cap: the
  /// payload bytes were consumed off the stream but never buffered, and
  /// `payload` is empty. header.payload_len still holds the declared size.
  bool oversized = false;
};

/// Serializes one frame. `payload.size()` must fit in u32.
Bytes encode_frame(std::uint8_t type, std::uint64_t request_id,
                   std::uint32_t deadline_ms,
                   std::span<const std::uint8_t> payload);
inline Bytes encode_frame(Op op, std::uint64_t request_id,
                          std::uint32_t deadline_ms,
                          std::span<const std::uint8_t> payload) {
  return encode_frame(static_cast<std::uint8_t>(op), request_id, deadline_ms,
                      payload);
}
inline Bytes encode_frame(Status s, std::uint64_t request_id,
                          std::span<const std::uint8_t> payload) {
  return encode_frame(static_cast<std::uint8_t>(s), request_id, 0, payload);
}

/// Incremental frame parser over an arbitrary chunking of the stream.
/// feed() consumes any number of bytes (a byte at a time is fine — short
/// reads reassemble); completed frames queue for take(). Buffered bytes
/// never exceed kHeaderBytes + max_payload regardless of what the peer
/// declares. Throws ProtocolError on garbage, after which the assembler is
/// poisoned and every further feed() rethrows.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_payload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> data);
  std::optional<Frame> take();

  std::size_t buffered() const { return partial_.size(); }
  std::size_t max_payload() const { return max_payload_; }

 private:
  std::size_t max_payload_;
  Bytes partial_;  ///< header (+ payload while under the cap) in progress
  bool have_header_ = false;
  FrameHeader header_;
  std::uint64_t skip_remaining_ = 0;  ///< oversized payload left to discard
  bool poisoned_ = false;
  std::deque<Frame> ready_;
};

// ---- Request / response payload codecs ------------------------------------
//
// All payloads are ByteWriter/ByteReader encodings (big-endian, u32
// length-prefixed blobs/strings). Parsers throw ParseError on truncation or
// trailing bytes and InvalidArgument on out-of-range enums; the server maps
// both to Status::kBadRequest.

struct UploadRequest {
  Bytes jfif;
  Bytes public_params;
};

struct ApplyRequest {
  std::string id;
  psp::DeliveryMode mode = psp::DeliveryMode::kCoefficients;
  std::int32_t quality = 85;
  transform::Chain chain;
};

struct DownloadRequest {
  std::string id;
};

/// What `download` returns over the wire: the PSP's own download, field for
/// field (mode byte, jfif blob, public_params blob, chain).
using DownloadReply = psp::Download;

Bytes encode_upload(const UploadRequest& r);
UploadRequest parse_upload(std::span<const std::uint8_t> payload);

Bytes encode_apply(const ApplyRequest& r);
ApplyRequest parse_apply(std::span<const std::uint8_t> payload);

Bytes encode_download(const DownloadRequest& r);
DownloadRequest parse_download(std::span<const std::uint8_t> payload);

Bytes encode_download_reply(const DownloadReply& r);
DownloadReply parse_download_reply(std::span<const std::uint8_t> payload);

/// str payloads (upload reply id, stats JSON, error messages).
Bytes encode_text(std::string_view text);
std::string parse_text(std::span<const std::uint8_t> payload);

}  // namespace puppies::net
