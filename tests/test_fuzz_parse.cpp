// Seeded mutation fuzzing of the JPEG parser (its own binary: tier-1
// rebuilds and reruns exactly this suite under ASan and UBSan).
//
// Contract under test: jpeg::parse() on arbitrary bytes either returns an
// internally consistent image or throws ParseError — never another
// exception type, never a crash, never an allocation sized by attacker-
// controlled SOF dimensions beyond max_decode_pixels().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec_reference.h"
#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

namespace puppies::jpeg {
namespace {

/// Base corpus: real streams from every encoder configuration the codec
/// produces (4:4:4 / 4:2:0 chroma, standard / optimized Huffman, restart
/// markers, grayscale-ish flat scene), so mutations reach every parser path.
const std::vector<Bytes>& corpus() {
  static const std::vector<Bytes> streams = [] {
    std::vector<Bytes> out;
    const synth::SceneImage a =
        synth::generate(synth::Dataset::kPascal, 17, 96, 64);
    const synth::SceneImage b =
        synth::generate(synth::Dataset::kInria, 4, 80, 56);
    out.push_back(compress(a.image, 75));
    EncodeOptions std_tables;
    std_tables.huffman = HuffmanMode::kStandard;
    out.push_back(compress(a.image, 50, std_tables));
    EncodeOptions chroma420;
    chroma420.chroma = ChromaMode::k420;
    out.push_back(compress(b.image, 85, chroma420));
    EncodeOptions restarts;
    restarts.restart_interval = 3;
    out.push_back(compress(b.image, 60, restarts));
    return out;
  }();
  return streams;
}

/// One seeded mutant. The strategy mix aims every parser stage: header
/// markers, table definitions, entropy-coded payload, stream framing.
Bytes mutate(const Bytes& base, Rng& rng) {
  Bytes m = base;
  switch (rng.below(6)) {
    case 0: {  // bit flips, anywhere
      const int flips = 1 + static_cast<int>(rng.below(16));
      for (int f = 0; f < flips; ++f)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {  // truncation
      m.resize(rng.below(m.size()));
      break;
    }
    case 2: {  // delete a span (desyncs lengths against payloads)
      const std::size_t pos = rng.below(m.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(32), m.size() - pos);
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(pos),
              m.begin() + static_cast<std::ptrdiff_t>(pos + len));
      break;
    }
    case 3: {  // insert garbage
      const std::size_t pos = rng.below(m.size());
      Bytes junk(1 + rng.below(32));
      for (auto& x : junk) x = static_cast<std::uint8_t>(rng.below(256));
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos), junk.begin(),
               junk.end());
      break;
    }
    case 4: {  // marker-targeted: corrupt the byte after some 0xFF
      std::vector<std::size_t> markers;
      for (std::size_t i = 0; i + 1 < m.size(); ++i)
        if (m[i] == 0xFF) markers.push_back(i + 1);
      if (!markers.empty())
        m[markers[rng.below(markers.size())]] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    default: {  // splice the head of one stream onto the tail of another
      const Bytes& other = corpus()[rng.below(corpus().size())];
      const std::size_t head = rng.below(m.size());
      const std::size_t tail = rng.below(other.size());
      m.resize(head);
      m.insert(m.end(), other.end() - static_cast<std::ptrdiff_t>(tail),
               other.end());
      if (m.empty()) m.push_back(0xFF);
      break;
    }
  }
  return m;
}

TEST(FuzzParse, TenThousandMutantsThrowOnlyParseError) {
  constexpr int kMutants = 10'000;
  Rng rng("fuzz-parse-mutants");
  int decoded = 0, rejected = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    const Bytes& base = corpus()[rng.below(corpus().size())];
    const Bytes mutant = mutate(base, rng);
    try {
      const CoefficientImage img = parse(mutant);
      // Survivors must be internally consistent, not just non-crashing.
      ASSERT_GT(img.width(), 0) << "trial " << trial;
      ASSERT_GT(img.height(), 0) << "trial " << trial;
      ASSERT_GE(img.component_count(), 1) << "trial " << trial;
      // Drive the survivor's hostile coefficient distribution through the
      // optimized-Huffman encoder (histogram, table build, fused emission):
      // under ASan/UBSan this is what makes the re-encode path's crash-free
      // claim real. serialize may legitimately reject images whose parsed
      // tables it cannot re-emit (e.g. zero DQT entries) — via Error only.
      try {
        const Bytes reencoded = serialize(img);
        ASSERT_EQ(parse(reencoded), img) << "trial " << trial;
      } catch (const Error&) {
        // Sanctioned: unencodable survivor (never a crash or foreign throw).
      }
      ++decoded;
    } catch (const ParseError&) {
      ++rejected;  // the one and only sanctioned failure mode
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": non-ParseError escaped: " << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kMutants);
  EXPECT_GT(rejected, kMutants / 2);  // corruption is usually fatal
}

TEST(FuzzParse, PureGarbageStreamsThrowOnlyParseError) {
  Rng rng("fuzz-parse-garbage");
  for (int trial = 0; trial < 500; ++trial) {
    Bytes garbage(2 + rng.below(2048));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_THROW((void)parse(garbage), ParseError) << "trial " << trial;
  }
}

TEST(FuzzParse, EveryTruncationPointThrowsParseError) {
  const Bytes& data = corpus()[0];
  for (std::size_t keep = 0; keep < data.size(); keep += 3) {
    const Bytes truncated(data.begin(),
                          data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)parse(truncated), ParseError) << "kept " << keep;
  }
}

TEST(FuzzParse, StreamsMissingTheirEoiAreRejected) {
  // Cut 1 byte leaves a dangling 0xFF, cut 2 loses the EOI: both used to
  // decode, since the scan had already delivered its last MCU.
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 9, 72, 56);
  GrayU8 gray(40, 24);
  Rng rng("fuzz-parse-eoi");
  for (int y = 0; y < gray.height(); ++y)
    for (int x = 0; x < gray.width(); ++x)
      gray.at(x, y) = static_cast<std::uint8_t>(rng.range(0, 255));
  const CoefficientImage images[] = {
      forward_transform(rgb_to_ycc(scene.image), 75, ChromaMode::k444),
      forward_transform(rgb_to_ycc(scene.image), 75, ChromaMode::k420),
      reference::forward_transform(gray, 75),
  };
  for (const CoefficientImage& img : images) {
    for (const int restart : {0, kRestartEveryMcuRow}) {
      EncodeOptions opts;
      opts.restart_interval = restart;
      const Bytes data = serialize(img, opts);
      EXPECT_EQ(parse(data), img);
      for (const std::size_t cut : {1u, 2u}) {
        const Bytes truncated(data.begin(),
                              data.end() - static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW((void)parse(truncated), ParseError)
            << img.component_count() << " components, restart " << restart
            << ", cut " << cut;
      }
    }
  }
}

// --- The SOF allocation guard (satellite: bounded decoder allocations).

/// Restores the env/default pixel limit even when an assertion fails out.
struct MaxPixelsGuard {
  ~MaxPixelsGuard() { set_max_decode_pixels(0); }
};

/// Patches the height/width fields of the first SOF0 segment in `stream`.
Bytes with_sof_dimensions(Bytes stream, std::uint16_t h, std::uint16_t w) {
  for (std::size_t i = 0; i + 9 < stream.size(); ++i) {
    if (stream[i] == 0xFF && stream[i + 1] == 0xC0) {
      // FF C0 <len:2> <precision:1> <height:2> <width:2> ...
      stream[i + 5] = static_cast<std::uint8_t>(h >> 8);
      stream[i + 6] = static_cast<std::uint8_t>(h & 0xFF);
      stream[i + 7] = static_cast<std::uint8_t>(w >> 8);
      stream[i + 8] = static_cast<std::uint8_t>(w & 0xFF);
      return stream;
    }
  }
  ADD_FAILURE() << "no SOF0 marker found";
  return stream;
}

TEST(FuzzParse, HostileScanTableIdsAreRejected) {
  // Found by this suite's mutator: a scan header naming Huffman table ids
  // outside baseline's {0, 1} used to index past the decoder tables.
  Bytes stream = corpus()[0];
  bool patched = false;
  for (std::size_t i = 0; i + 6 < stream.size(); ++i) {
    if (stream[i] == 0xFF && stream[i + 1] == 0xDA) {
      // FF DA <len:2> <ncomp:1> <comp id:1> <td/ta:1> ...
      stream[i + 6] = 0x22;  // DC table 2, AC table 2
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched) << "no SOS marker found";
  EXPECT_THROW((void)parse(stream), ParseError);
}

TEST(FuzzParse, HostileSofDimensionsRejectedBeforeAllocation) {
  // 65535 x 65535 would be a ~4.3 gigapixel commitment (tens of GB of
  // coefficient buffers); the default 1 GP guard must refuse up front.
  const Bytes hostile = with_sof_dimensions(corpus()[0], 0xFFFF, 0xFFFF);
  try {
    (void)parse(hostile);
    FAIL() << "hostile SOF accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("decode limit"), std::string::npos)
        << e.what();
  }
}

TEST(FuzzParse, MaxPixelsOverrideBoundsOrdinaryImages) {
  MaxPixelsGuard guard;
  const Bytes& data = corpus()[0];  // 96 x 64 = 6144 pixels
  set_max_decode_pixels(1000);
  EXPECT_EQ(max_decode_pixels(), 1000u);
  EXPECT_THROW((void)parse(data), ParseError);
  set_max_decode_pixels(0);  // back to env/default resolution
  // Gigapixel-tier default: big enough for stitched panoramas, still a
  // hard ceiling well under the hostile-SOF commitment above.
  EXPECT_GE(max_decode_pixels(), 1'000'000'000u);
  EXPECT_LT(max_decode_pixels(),
            static_cast<std::size_t>(0xFFFF) * 0xFFFF);
  EXPECT_NO_THROW((void)parse(data));
}

TEST(FuzzParse, LimitIsAboutPixelsNotBytes) {
  MaxPixelsGuard guard;
  set_max_decode_pixels(96 * 64);
  // Exactly at the limit: accepted (the guard is <=, not <).
  EXPECT_NO_THROW((void)parse(corpus()[0]));
  set_max_decode_pixels(96 * 64 - 1);
  EXPECT_THROW((void)parse(corpus()[0]), ParseError);
}

}  // namespace
}  // namespace puppies::jpeg
