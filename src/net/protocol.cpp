#include "puppies/net/protocol.h"

#include <algorithm>
#include <cstring>

namespace puppies::net {

const char* to_string(Op op) {
  switch (op) {
    case Op::kUpload: return "upload";
    case Op::kApply: return "apply";
    case Op::kDownload: return "download";
    case Op::kStats: return "stats";
  }
  return "unknown";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kBusy: return "busy";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kTooLarge: return "too_large";
    case Status::kBadRequest: return "bad_request";
  }
  return "unknown";
}

Bytes encode_frame(std::uint8_t type, std::uint64_t request_id,
                   std::uint32_t deadline_ms,
                   std::span<const std::uint8_t> payload) {
  require(payload.size() <= 0xffffffffull, "frame payload exceeds u32");
  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(type);
  w.u16(0);  // reserved
  w.u64(request_id);
  w.u32(deadline_ms);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return w.take();
}

namespace {

FrameHeader parse_header(const Bytes& raw) {
  ByteReader r(raw);
  if (r.u32() != kMagic) throw ProtocolError("bad magic");
  const std::uint8_t version = r.u8();
  if (version != kVersion)
    throw ProtocolError("unsupported version " + std::to_string(version));
  FrameHeader h;
  h.type = r.u8();
  if (r.u16() != 0) throw ProtocolError("reserved field not zero");
  h.request_id = r.u64();
  h.deadline_ms = r.u32();
  h.payload_len = r.u32();
  return h;
}

}  // namespace

void FrameAssembler::feed(std::span<const std::uint8_t> data) {
  if (poisoned_) throw ProtocolError("assembler poisoned by earlier garbage");
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (skip_remaining_ > 0) {
      // Discarding an oversized payload: consume without buffering.
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(skip_remaining_, data.size() - pos));
      pos += n;
      skip_remaining_ -= n;
      if (skip_remaining_ == 0) {
        Frame f;
        f.header = header_;
        f.oversized = true;
        ready_.push_back(std::move(f));
        have_header_ = false;
      }
      continue;
    }
    if (!have_header_) {
      const std::size_t need = kHeaderBytes - partial_.size();
      const std::size_t n = std::min(need, data.size() - pos);
      partial_.insert(partial_.end(), data.begin() + pos,
                      data.begin() + pos + n);
      pos += n;
      if (partial_.size() < kHeaderBytes) return;
      try {
        header_ = parse_header(partial_);
      } catch (const ProtocolError&) {
        poisoned_ = true;
        throw;
      }
      partial_.clear();
      have_header_ = true;
      if (header_.payload_len > max_payload_) {
        // Bounded framing: never allocate for a payload over the cap.
        skip_remaining_ = header_.payload_len;
        continue;
      }
      // Grow-as-received: the declared length is untrusted input even
      // under the cap, so never pre-commit more than a page-scale hint.
      partial_.reserve(std::min<std::size_t>(header_.payload_len, 1 << 20));
    }
    const std::size_t need = header_.payload_len - partial_.size();
    const std::size_t n = std::min(need, data.size() - pos);
    partial_.insert(partial_.end(), data.begin() + pos, data.begin() + pos + n);
    pos += n;
    if (partial_.size() == header_.payload_len) {
      Frame f;
      f.header = header_;
      f.payload = std::move(partial_);
      partial_ = Bytes();
      ready_.push_back(std::move(f));
      have_header_ = false;
    }
  }
}

std::optional<Frame> FrameAssembler::take() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

namespace {

// The mode byte on the wire is the enumerator value.
static_assert(static_cast<std::uint8_t>(psp::DeliveryMode::kCoefficients) == 0);
static_assert(static_cast<std::uint8_t>(psp::DeliveryMode::kClampedReencode) ==
              2);

psp::DeliveryMode parse_mode(std::uint8_t v) {
  switch (v) {
    case static_cast<std::uint8_t>(psp::DeliveryMode::kCoefficients):
      return psp::DeliveryMode::kCoefficients;
    case static_cast<std::uint8_t>(psp::DeliveryMode::kClampedReencode):
      return psp::DeliveryMode::kClampedReencode;
  }
  throw InvalidArgument("unknown delivery mode " + std::to_string(v));
}

void require_done(const ByteReader& r, const char* what) {
  if (!r.done())
    throw ParseError(std::string(what) + ": trailing bytes after payload");
}

}  // namespace

Bytes encode_upload(const UploadRequest& r) {
  ByteWriter w;
  w.blob(r.jfif);
  w.blob(r.public_params);
  return w.take();
}

UploadRequest parse_upload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  UploadRequest u;
  u.jfif = r.blob();
  u.public_params = r.blob();
  require_done(r, "upload");
  return u;
}

Bytes encode_apply(const ApplyRequest& r) {
  ByteWriter w;
  w.str(r.id);
  w.u8(static_cast<std::uint8_t>(r.mode));
  w.i32(r.quality);
  transform::write_chain(w, r.chain);
  return w.take();
}

ApplyRequest parse_apply(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ApplyRequest a;
  a.id = r.str();
  a.mode = parse_mode(r.u8());
  a.quality = r.i32();
  a.chain = transform::read_chain(r);
  require_done(r, "apply");
  return a;
}

Bytes encode_download(const DownloadRequest& r) {
  ByteWriter w;
  w.str(r.id);
  return w.take();
}

DownloadRequest parse_download(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  DownloadRequest d;
  d.id = r.str();
  require_done(r, "download");
  return d;
}

Bytes encode_download_reply(const DownloadReply& r) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(r.mode));
  w.blob(r.jfif);
  w.blob(r.public_params);
  transform::write_chain(w, r.chain);
  return w.take();
}

DownloadReply parse_download_reply(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  DownloadReply d;
  d.mode = parse_mode(r.u8());
  d.jfif = r.blob();
  d.public_params = r.blob();
  d.chain = transform::read_chain(r);
  require_done(r, "download reply");
  return d;
}

Bytes encode_text(std::string_view text) {
  ByteWriter w;
  w.str(text);
  return w.take();
}

std::string parse_text(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::string s = r.str();
  require_done(r, "text");
  return s;
}

}  // namespace puppies::net
