// Failure injection: corrupted inputs must produce clean ParseErrors (or a
// decodable-but-different image), never crashes, hangs, or memory errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/core/params.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/inspect.h"
#include "puppies/synth/synth.h"

namespace puppies {
namespace {

Bytes reference_stream() {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 17, 96, 64);
  return jpeg::compress(scene.image, 75);
}

TEST(Robustness, TruncatedJpegAlwaysThrowsParseError) {
  const Bytes data = reference_stream();
  Rng rng("fuzz-truncate");
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t keep = rng.below(data.size());
    const Bytes truncated(data.begin(),
                          data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(jpeg::parse(truncated), ParseError) << "kept " << keep;
  }
}

TEST(Robustness, BitFlippedJpegNeverCrashes) {
  const Bytes data = reference_stream();
  Rng rng("fuzz-flip");
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Bytes mutated = data;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    try {
      const jpeg::CoefficientImage img = jpeg::parse(mutated);
      // If it decoded, the result must be internally consistent.
      EXPECT_GT(img.width(), 0);
      EXPECT_GT(img.height(), 0);
      EXPECT_GE(img.component_count(), 1);
      ++decoded;
    } catch (const Error&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + decoded, 150);
  EXPECT_GT(threw, 0);  // corruption is usually fatal
}

TEST(Robustness, ByteDeletionNeverCrashes) {
  const Bytes data = reference_stream();
  Rng rng("fuzz-delete");
  for (int trial = 0; trial < 60; ++trial) {
    Bytes mutated = data;
    const std::size_t pos = rng.below(mutated.size());
    mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(pos));
    try {
      (void)jpeg::parse(mutated);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, GarbageIsRejectedQuickly) {
  Rng rng("fuzz-garbage");
  for (int trial = 0; trial < 40; ++trial) {
    Bytes garbage(rng.below(4096) + 2);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      (void)jpeg::parse(garbage);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, CorruptedPublicParamsThrowOrParse) {
  // Build a real parameter blob, then corrupt it.
  core::PublicParameters params;
  params.width = 64;
  params.height = 48;
  params.components = 3;
  params.luma_qtable = jpeg::luma_quant_table(75);
  params.chroma_qtable = jpeg::chroma_quant_table(75);
  core::ProtectedRoi roi;
  roi.rect = Rect{8, 8, 16, 16};
  roi.matrix_id = "abcdef";
  roi.zind.add({0, 3, 7});
  params.rois.push_back(roi);
  const Bytes data = params.serialize();

  Rng rng("fuzz-params");
  for (int trial = 0; trial < 120; ++trial) {
    Bytes mutated = data;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u + rng.below(255));
    try {
      (void)core::PublicParameters::parse(mutated);
    } catch (const Error&) {
    }
  }
  // Truncations must throw.
  for (std::size_t keep = 0; keep < data.size(); keep += 7) {
    const Bytes truncated(data.begin(),
                          data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(core::PublicParameters::parse(truncated), ParseError);
  }
}

TEST(Robustness, PublicParamsRejectHostileCountAndGeometry) {
  core::PublicParameters params;
  params.width = 64;
  params.height = 48;
  params.components = 3;
  params.luma_qtable = jpeg::luma_quant_table(75);
  params.chroma_qtable = jpeg::chroma_quant_table(75);
  EXPECT_NO_THROW(core::PublicParameters::parse(params.serialize()));

  // With no ROIs the blob ends in the ROI count: claim 0xFFFFFFFF of them.
  Bytes huge_count = params.serialize();
  std::fill(huge_count.end() - 4, huge_count.end(), 0xFF);
  EXPECT_THROW(core::PublicParameters::parse(huge_count), ParseError);

  // One ROI with empty position sets: the blob ends in its ZInd and WInd
  // counts. Claim 0xFFFFFFFF entries (6 bytes each) in either.
  core::PublicParameters one_roi = params;
  one_roi.rois.push_back(core::ProtectedRoi{});
  one_roi.rois.back().rect = Rect{0, 0, 16, 16};
  EXPECT_NO_THROW(core::PublicParameters::parse(one_roi.serialize()));
  for (const std::ptrdiff_t from_end : {8, 4}) {
    Bytes huge_set = one_roi.serialize();
    std::fill(huge_set.end() - from_end, huge_set.end() - from_end + 4, 0xFF);
    EXPECT_THROW(core::PublicParameters::parse(huge_set), ParseError)
        << (from_end == 8 ? "ZInd" : "WInd");
  }

  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {0, 48}, {64, 0}, {-8, 48}, {64, -16}, {100'000, 100'000}}) {
    core::PublicParameters bad = params;
    bad.width = w;
    bad.height = h;
    EXPECT_THROW(core::PublicParameters::parse(bad.serialize()), ParseError)
        << w << "x" << h;
  }
}

TEST(Inspect, DescribesAValidStream) {
  jpeg::EncodeOptions opts;
  opts.restart_interval = 2;
  opts.chroma = jpeg::ChromaMode::k420;
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 18, 96, 64);
  const Bytes data = jpeg::compress(scene.image, 75, opts);
  const std::string report = jpeg::describe_stream(data);
  EXPECT_NE(report.find("SOI"), std::string::npos);
  EXPECT_NE(report.find("SOF0"), std::string::npos);
  EXPECT_NE(report.find("96x64"), std::string::npos);
  EXPECT_NE(report.find("2x2"), std::string::npos);  // 4:2:0 luma sampling
  EXPECT_NE(report.find("restart interval 2"), std::string::npos);
  EXPECT_NE(report.find("restart markers"), std::string::npos);
  EXPECT_NE(report.find("EOI"), std::string::npos);
}

TEST(Inspect, ToleratesGarbageWithoutThrowing) {
  EXPECT_NE(jpeg::describe_stream(Bytes{1, 2, 3}).find("not a JPEG"),
            std::string::npos);
  // Truncated-but-valid prefix: must not throw.
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 18, 64, 48);
  Bytes data = jpeg::compress(scene.image, 75);
  data.resize(data.size() / 3);
  EXPECT_NO_THROW(jpeg::describe_stream(data));
  EXPECT_NO_THROW(jpeg::describe_stream(Bytes{}));
  EXPECT_NO_THROW(jpeg::describe_stream(Bytes{0xff, 0xd8}));
}

TEST(Robustness, ParseSerializeFixpoint) {
  // parse(serialize(parse(x))) == parse(x) for valid streams.
  const Bytes data = reference_stream();
  const jpeg::CoefficientImage first = jpeg::parse(data);
  const jpeg::CoefficientImage second = jpeg::parse(jpeg::serialize(first));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace puppies
