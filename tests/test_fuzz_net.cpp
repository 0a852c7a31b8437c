// Seeded mutation fuzzing of the serving protocol's trust boundary: the
// four payload codecs and the frame assembler (net/protocol.h). Part of
// tests_fuzz, which tier 1 reruns under ASan, UBSan and a capped address
// space.
//
// Contracts under test:
// - a mutated payload either parses, and then re-encodes to a payload that
//   parses to an equal value, or throws ParseError / InvalidArgument;
// - a mutated frame stream yields the same frames, and the same
//   ProtocolError or none, under every chunking, and the assembler never
//   buffers more than one header plus max_payload bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/jpeg/codec.h"
#include "puppies/net/protocol.h"
#include "puppies/synth/synth.h"

namespace puppies::net {
namespace {

using psp::DeliveryMode;

constexpr int kMutants = 3000;

Bytes small_jfif() {
  static const Bytes jfif = jpeg::compress(
      synth::generate(synth::Dataset::kPascal, 31, 48, 32).image, 75);
  return jfif;
}

Bytes seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

/// Every step kind with parameters, so mutants reach each field of the
/// chain encoding.
transform::Chain long_chain() {
  return {transform::rotate(90),
          transform::flip_h(),
          transform::crop_aligned(Rect{8, 16, 32, 24}),
          transform::scale(40, 24),
          transform::box_blur(),
          transform::sharpen(),
          transform::recompress(60)};
}

std::vector<Bytes> upload_bases() {
  return {encode_upload({small_jfif(), seeded_bytes(40, 1)}),
          encode_upload({{}, {}})};
}

std::vector<Bytes> apply_bases() {
  ApplyRequest a;
  a.id = "img-12";
  a.mode = DeliveryMode::kCoefficients;
  a.chain = {transform::rotate(180), transform::flip_v()};
  ApplyRequest b;
  b.id = "img-0";
  b.mode = DeliveryMode::kClampedReencode;
  b.quality = 70;
  b.chain = long_chain();
  return {encode_apply(a), encode_apply(b)};
}

std::vector<Bytes> download_bases() {
  return {encode_download({"img-3"}), encode_download({""})};
}

std::vector<Bytes> reply_bases() {
  DownloadReply raw;
  raw.jfif = small_jfif();
  raw.public_params = seeded_bytes(40, 2);
  DownloadReply transformed;
  transformed.mode = DeliveryMode::kClampedReencode;
  transformed.jfif = seeded_bytes(64, 3);
  transformed.public_params = seeded_bytes(24, 4);
  transformed.chain = long_chain();
  return {encode_download_reply(raw), encode_download_reply(transformed)};
}

/// One seeded mutant of a base: bit flips, a random 32-bit word written
/// over any four bytes (every payload field is a u8, an i32 or a u32
/// length), a truncation, or the head of the base spliced onto the tail of
/// any `donors` entry.
Bytes mutate(const Bytes& base, const std::vector<Bytes>& donors, Rng& rng) {
  Bytes m = base;
  switch (rng.below(4)) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips && !m.empty(); ++f)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {
      if (m.size() < 4) break;
      const std::size_t at = rng.below(m.size() - 3);
      const std::uint64_t word = rng.next();
      for (int i = 0; i < 4; ++i)
        m[at + i] = static_cast<std::uint8_t>(word >> (8 * i));
      break;
    }
    case 2:
      m.resize(rng.below(m.size() + 1));
      break;
    default: {
      const Bytes& other = donors[rng.below(donors.size())];
      const std::size_t tail = rng.below(other.size() + 1);
      m.resize(rng.below(m.size() + 1));
      m.insert(m.end(), other.end() - static_cast<std::ptrdiff_t>(tail),
               other.end());
      break;
    }
  }
  return m;
}

std::vector<Bytes> all_bases() {
  std::vector<Bytes> all;
  for (const auto& set :
       {upload_bases(), apply_bases(), download_bases(), reply_bases()})
    all.insert(all.end(), set.begin(), set.end());
  return all;
}

bool same(const UploadRequest& a, const UploadRequest& b) {
  return a.jfif == b.jfif && a.public_params == b.public_params;
}
bool same(const ApplyRequest& a, const ApplyRequest& b) {
  return a.id == b.id && a.mode == b.mode && a.quality == b.quality &&
         a.chain == b.chain;
}
bool same(const DownloadRequest& a, const DownloadRequest& b) {
  return a.id == b.id;
}
bool same(const DownloadReply& a, const DownloadReply& b) {
  return a.mode == b.mode && a.jfif == b.jfif &&
         a.public_params == b.public_params && a.chain == b.chain;
}

/// Runs kMutants seeded mutants of `bases` through `parse`: each either
/// throws ParseError / InvalidArgument or survives, and a survivor's
/// re-encoding parses to an equal value.
template <typename T>
void fuzz_codec(const char* seed, const std::vector<Bytes>& bases,
                T (*parse)(std::span<const std::uint8_t>),
                Bytes (*encode)(const T&)) {
  const std::vector<Bytes> donors = all_bases();
  Rng rng(seed);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    const Bytes mutant = mutate(bases[rng.below(bases.size())], donors, rng);
    std::optional<T> value;
    try {
      value = parse(mutant);
    } catch (const ParseError&) {
      ++rejected;
      continue;
    } catch (const InvalidArgument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << seed << " trial " << trial
             << ": unsanctioned exception: " << e.what();
    }
    ++parsed;
    const Bytes again = encode(*value);
    try {
      ASSERT_TRUE(same(parse(again), *value))
          << seed << " trial " << trial << ": re-encoding changed the value";
    } catch (const std::exception& e) {
      FAIL() << seed << " trial " << trial
             << ": re-encoded survivor does not parse: " << e.what();
    }
  }
  EXPECT_EQ(parsed + rejected, kMutants);
  EXPECT_GT(parsed, 0) << seed;
  EXPECT_GT(rejected, kMutants / 4) << seed;
}

TEST(FuzzNet, UploadMutantsRoundTripOrThrowTyped) {
  fuzz_codec<UploadRequest>("fuzz-net-upload", upload_bases(), parse_upload,
                            encode_upload);
}

TEST(FuzzNet, ApplyMutantsRoundTripOrThrowTyped) {
  fuzz_codec<ApplyRequest>("fuzz-net-apply", apply_bases(), parse_apply,
                           encode_apply);
}

TEST(FuzzNet, DownloadMutantsRoundTripOrThrowTyped) {
  fuzz_codec<DownloadRequest>("fuzz-net-download", download_bases(),
                              parse_download, encode_download);
}

TEST(FuzzNet, DownloadReplyMutantsRoundTripOrThrowTyped) {
  fuzz_codec<DownloadReply>("fuzz-net-reply", reply_bases(),
                            parse_download_reply, encode_download_reply);
}

// ---- frame assembler ------------------------------------------------------

constexpr std::size_t kMaxPayload = 4096;

/// A stream of request and response frames: real payloads, an empty one,
/// and one over kMaxPayload (skipped, not buffered). `starts` receives each
/// frame's offset so mutants can aim at headers.
Bytes frame_stream(std::vector<std::size_t>& starts) {
  const std::vector<Bytes> frames = {
      encode_frame(Op::kUpload, 1, 0, upload_bases()[0]),
      encode_frame(Op::kApply, 2, 250, apply_bases()[1]),
      encode_frame(Op::kStats, 3, 0, Bytes{}),
      encode_frame(Op::kDownload, 4, 0, download_bases()[0]),
      encode_frame(Status::kOk, 4, reply_bases()[1]),
      encode_frame(Op::kUpload, 5, 0, seeded_bytes(kMaxPayload + 900, 5)),
      encode_frame(Status::kBusy, 6, Bytes{}),
      encode_frame(Op::kApply, 7, 0, apply_bases()[0]),
  };
  Bytes stream;
  for (const Bytes& f : frames) {
    starts.push_back(stream.size());
    stream.insert(stream.end(), f.begin(), f.end());
  }
  return stream;
}

struct Outcome {
  std::vector<Frame> frames;
  bool protocol_error = false;
  std::size_t buffered = 0;
};

void drain(FrameAssembler& a, Outcome& out) {
  while (std::optional<Frame> f = a.take()) out.frames.push_back(*f);
}

/// Feeds `stream` in chunks of 1..max_chunk bytes (the whole stream at once
/// when max_chunk is 0) and checks the buffering bound after every feed.
Outcome assemble(const Bytes& stream, std::size_t max_chunk, Rng& rng) {
  FrameAssembler a(kMaxPayload);
  Outcome out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n =
        max_chunk == 0 ? stream.size()
                       : std::min<std::size_t>(1 + rng.below(max_chunk),
                                               stream.size() - pos);
    try {
      a.feed(std::span(stream).subspan(pos, n));
    } catch (const ProtocolError&) {
      out.protocol_error = true;
      drain(a, out);
      // Poisoned: every later feed rethrows.
      EXPECT_THROW(a.feed(std::span(stream).subspan(0, 1)), ProtocolError);
      return out;
    }
    EXPECT_LE(a.buffered(), kHeaderBytes + kMaxPayload);
    drain(a, out);
    pos += n;
  }
  out.buffered = a.buffered();
  return out;
}

bool same_frames(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FrameHeader& x = a[i].header;
    const FrameHeader& y = b[i].header;
    if (x.type != y.type || x.request_id != y.request_id ||
        x.deadline_ms != y.deadline_ms || x.payload_len != y.payload_len ||
        a[i].payload != b[i].payload || a[i].oversized != b[i].oversized)
      return false;
  }
  return true;
}

TEST(FuzzNet, FrameStreamMutantsAssembleAlikeUnderEveryChunking) {
  std::vector<std::size_t> starts;
  const Bytes stream = frame_stream(starts);
  const std::vector<Bytes> donors = {stream};
  Rng rng("fuzz-net-frames");
  int poisoned = 0, clean = 0;
  for (int trial = 0; trial < kMutants / 3; ++trial) {
    Bytes m = mutate(stream, donors, rng);
    if (rng.chance(0.5)) {
      // Aim a flip at a header: magic, version, reserved and length fields
      // are where framing is won or lost.
      const std::size_t at =
          starts[rng.below(starts.size())] + rng.below(kHeaderBytes);
      if (at < m.size())
        m[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    try {
      const Outcome whole = assemble(m, 0, rng);
      for (const Frame& f : whole.frames) {
        if (f.oversized) {
          ASSERT_GT(f.header.payload_len, kMaxPayload) << "trial " << trial;
          ASSERT_TRUE(f.payload.empty()) << "trial " << trial;
        } else {
          ASSERT_EQ(f.payload.size(), f.header.payload_len)
              << "trial " << trial;
        }
      }
      for (const std::size_t max_chunk : {1, 7, 97, 4000}) {
        const Outcome split = assemble(m, max_chunk, rng);
        ASSERT_TRUE(same_frames(split.frames, whole.frames))
            << "trial " << trial << " chunk " << max_chunk;
        ASSERT_EQ(split.protocol_error, whole.protocol_error)
            << "trial " << trial << " chunk " << max_chunk;
        ASSERT_EQ(split.buffered, whole.buffered)
            << "trial " << trial << " chunk " << max_chunk;
      }
      ++(whole.protocol_error ? poisoned : clean);
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": unsanctioned exception: " << e.what();
    }
  }
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(clean, 0);
}

}  // namespace
}  // namespace puppies::net
