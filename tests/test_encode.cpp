// Encode-path regression suite for the fast entropy encoder.
//
// The encoder rewrite (64-bit BitWriter, packed Huffman LUTs, fused
// quantize->zigzag->scan kernels, mask-driven run-length walk) is required
// to be byte-identical to the seed encoder in both table modes. The oracle
// here IS the seed algorithm, reimplemented independently: a bit-at-a-time
// writer with per-byte 0xFF stuffing, and a per-coefficient z-loop over
// every block emitting symbol and magnitude separately. Every serialize()
// output is compared against it across chroma modes, perturbation schemes,
// Huffman modes, and restart intervals; scripts/tier1.sh reruns this binary
// with PUPPIES_SIMD=scalar so the identity is pinned on every tier.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "codec_reference.h"
#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/huffman.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"

using namespace puppies;

namespace {

// ---------------------------------------------------------------------------
// Reference (seed) encoder: bit-at-a-time writer + z-loop block walk.

class RefBitWriter {
 public:
  explicit RefBitWriter(Bytes& out) : out_(out) {}

  void put(std::uint64_t bits, int count) {
    for (int i = count - 1; i >= 0; --i)
      put_bit(static_cast<int>((bits >> i) & 1));
  }

  void flush() {
    while (n_ != 0) put_bit(1);  // pad with 1s
  }

  void restart_marker(int n) {
    flush();
    out_.push_back(0xff);
    out_.push_back(static_cast<std::uint8_t>(0xd0 + n));
  }

 private:
  void put_bit(int b) {
    acc_ = static_cast<std::uint8_t>((acc_ << 1) | b);
    if (++n_ == 8) {
      out_.push_back(acc_);
      if (acc_ == 0xff) out_.push_back(0x00);  // byte stuffing
      acc_ = 0;
      n_ = 0;
    }
  }

  Bytes& out_;
  std::uint8_t acc_ = 0;
  int n_ = 0;
};

void ref_emit_symbol(RefBitWriter& bits, const jpeg::HuffmanEncoder& enc,
                     std::uint8_t sym) {
  const std::uint32_t p = enc.packed(sym);
  ASSERT_NE(p, 0u) << "symbol " << int{sym} << " has no code";
  bits.put(p >> 6, static_cast<int>(p & 63u));
}

/// The seed scan walk: 64-coefficient loop with an explicit zero-run
/// counter, symbol and magnitude written separately.
template <typename DcSink, typename AcSink>
void ref_walk_block(const jpeg::CoefBlock& block, int& prev_dc,
                    DcSink&& dc_sink, AcSink&& ac_sink) {
  const int diff = block[0] - prev_dc;
  prev_dc = block[0];
  const int dc_cat = jpeg::magnitude_category(diff);
  dc_sink(static_cast<std::uint8_t>(dc_cat), diff, dc_cat);
  int run = 0;
  for (int z = 1; z < 64; ++z) {
    const int v = block[static_cast<std::size_t>(z)];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run > 15) {
      ac_sink(std::uint8_t{0xf0}, 0, 0);  // ZRL
      run -= 16;
    }
    const int cat = jpeg::magnitude_category(v);
    ac_sink(static_cast<std::uint8_t>((run << 4) | cat), v, cat);
    run = 0;
  }
  if (run > 0) ac_sink(std::uint8_t{0x00}, 0, 0);  // EOB
}

template <typename OnMcu, typename Visit>
void ref_scan_order(const jpeg::CoefficientImage& img, OnMcu&& on_mcu,
                    Visit&& visit) {
  const int ncomp = img.component_count();
  const int mcu_cols = img.blocks_w() / img.component(0).h;
  const int mcu_rows = img.blocks_h() / img.component(0).v;
  int mcu_index = 0;
  for (int my = 0; my < mcu_rows; ++my)
    for (int mx = 0; mx < mcu_cols; ++mx) {
      on_mcu(mcu_index++);
      for (int c = 0; c < ncomp; ++c) {
        const jpeg::Component& comp = img.component(c);
        for (int by = 0; by < comp.v; ++by)
          for (int bx = 0; bx < comp.h; ++bx)
            visit(c, mx * comp.h + bx, my * comp.v + by);
      }
    }
}

void ref_write_marker(ByteWriter& w, std::uint8_t marker) {
  w.u8(0xff);
  w.u8(marker);
}

void ref_write_dht(ByteWriter& w, const jpeg::HuffmanSpec& spec,
                   int table_class, int id) {
  ref_write_marker(w, 0xc4);
  w.u16(static_cast<std::uint16_t>(2 + 1 + 16 + spec.values.size()));
  w.u8(static_cast<std::uint8_t>((table_class << 4) | id));
  for (int l = 1; l <= 16; ++l) w.u8(spec.bits[static_cast<std::size_t>(l)]);
  w.raw(spec.values);
}

/// Full-stream reference serializer: same segment layout as serialize(),
/// seed entropy coding.
Bytes ref_serialize(const jpeg::CoefficientImage& img,
                    const jpeg::EncodeOptions& opts) {
  const int ncomp = img.component_count();
  auto table_id = [](int c) { return c == 0 ? 0 : 1; };
  // The default cadence is one restart segment per MCU row.
  const int restart = opts.restart_interval == jpeg::kRestartEveryMcuRow
                          ? img.blocks_w() / img.component(0).h
                          : opts.restart_interval;

  jpeg::HuffmanSpec dc_spec[2] = {jpeg::std_dc_luma(), jpeg::std_dc_chroma()};
  jpeg::HuffmanSpec ac_spec[2] = {jpeg::std_ac_luma(), jpeg::std_ac_chroma()};
  if (opts.huffman == jpeg::HuffmanMode::kOptimized) {
    std::array<long, 256> freq[2][2] = {};
    std::vector<int> prev_dc(static_cast<std::size_t>(ncomp), 0);
    ref_scan_order(
        img,
        [&](int mcu) {
          if (restart > 0 && mcu > 0 && mcu % restart == 0)
            std::fill(prev_dc.begin(), prev_dc.end(), 0);
        },
        [&](int c, int bx, int by) {
          const int t = table_id(c);
          ref_walk_block(
              img.component(c).block(bx, by),
              prev_dc[static_cast<std::size_t>(c)],
              [&](std::uint8_t sym, int, int) { ++freq[0][t][sym]; },
              [&](std::uint8_t sym, int, int) { ++freq[1][t][sym]; });
        });
    dc_spec[0] = jpeg::build_optimal_spec(freq[0][0]);
    ac_spec[0] = jpeg::build_optimal_spec(freq[1][0]);
    if (ncomp == 3) {
      dc_spec[1] = jpeg::build_optimal_spec(freq[0][1]);
      ac_spec[1] = jpeg::build_optimal_spec(freq[1][1]);
    }
  }

  ByteWriter w;
  ref_write_marker(w, 0xd8);  // SOI
  ref_write_marker(w, 0xe0);  // APP0
  w.u16(16);
  const char jfif[5] = {'J', 'F', 'I', 'F', 0};
  for (char c : jfif) w.u8(static_cast<std::uint8_t>(c));
  w.u8(1);
  w.u8(1);
  w.u8(0);
  w.u16(1);
  w.u16(1);
  w.u8(0);
  w.u8(0);
  for (int id = 0; id < (ncomp == 3 ? 2 : 1); ++id) {
    ref_write_marker(w, 0xdb);  // DQT
    w.u16(2 + 1 + 64);
    w.u8(static_cast<std::uint8_t>(id));
    for (int z = 0; z < 64; ++z)
      w.u8(static_cast<std::uint8_t>(img.qtable(id).q[static_cast<std::size_t>(z)]));
  }
  ref_write_marker(w, 0xc0);  // SOF0
  w.u16(static_cast<std::uint16_t>(8 + 3 * ncomp));
  w.u8(8);
  w.u16(static_cast<std::uint16_t>(img.height()));
  w.u16(static_cast<std::uint16_t>(img.width()));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    const jpeg::Component& comp = img.component(c);
    w.u8(static_cast<std::uint8_t>(c + 1));
    w.u8(static_cast<std::uint8_t>((comp.h << 4) | comp.v));
    w.u8(static_cast<std::uint8_t>(comp.quant_index));
  }
  ref_write_dht(w, dc_spec[0], 0, 0);
  ref_write_dht(w, ac_spec[0], 1, 0);
  if (ncomp == 3) {
    ref_write_dht(w, dc_spec[1], 0, 1);
    ref_write_dht(w, ac_spec[1], 1, 1);
  }
  if (restart > 0) {
    ref_write_marker(w, 0xdd);  // DRI
    w.u16(4);
    w.u16(static_cast<std::uint16_t>(restart));
  }
  ref_write_marker(w, 0xda);  // SOS
  w.u16(static_cast<std::uint16_t>(6 + 2 * ncomp));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    w.u8(static_cast<std::uint8_t>(c + 1));
    const int t = table_id(c);
    w.u8(static_cast<std::uint8_t>((t << 4) | t));
  }
  w.u8(0);
  w.u8(63);
  w.u8(0);

  Bytes out = w.take();
  {
    const jpeg::HuffmanEncoder dc_enc[2] = {jpeg::HuffmanEncoder(dc_spec[0]),
                                            jpeg::HuffmanEncoder(dc_spec[1])};
    const jpeg::HuffmanEncoder ac_enc[2] = {jpeg::HuffmanEncoder(ac_spec[0]),
                                            jpeg::HuffmanEncoder(ac_spec[1])};
    RefBitWriter bits(out);
    std::vector<int> prev_dc(static_cast<std::size_t>(ncomp), 0);
    ref_scan_order(
        img,
        [&](int mcu) {
          if (restart > 0 && mcu > 0 && mcu % restart == 0) {
            bits.restart_marker((mcu / restart - 1) % 8);
            std::fill(prev_dc.begin(), prev_dc.end(), 0);
          }
        },
        [&](int c, int bx, int by) {
          const int t = table_id(c);
          ref_walk_block(
              img.component(c).block(bx, by),
              prev_dc[static_cast<std::size_t>(c)],
              [&](std::uint8_t sym, int v, int cat) {
                ref_emit_symbol(bits, dc_enc[t], sym);
                bits.put(jpeg::magnitude_bits(v, cat), cat);
              },
              [&](std::uint8_t sym, int v, int cat) {
                ref_emit_symbol(bits, ac_enc[t], sym);
                bits.put(jpeg::magnitude_bits(v, cat), cat);
              });
        });
    bits.flush();
  }
  out.push_back(0xff);
  out.push_back(0xd9);  // EOI
  return out;
}

// ---------------------------------------------------------------------------
// Corpus.

jpeg::CoefficientImage scene_coeffs(jpeg::ChromaMode mode) {
  const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 1, 96, 64);
  return jpeg::forward_transform(rgb_to_ycc(s.image), 75, mode);
}

jpeg::CoefficientImage perturbed(const jpeg::CoefficientImage& img,
                                 core::Scheme scheme) {
  core::RoiPolicy policy;
  policy.rect = Rect{16, 16, 48, 32};
  policy.key = SecretKey::from_label("encode-differential");
  policy.scheme = scheme;
  policy.level = core::PrivacyLevel::kMedium;
  return core::protect(img, {policy}).perturbed;
}

std::vector<kernels::SimdTier> supported_tiers() {
  std::vector<kernels::SimdTier> out;
  for (kernels::SimdTier t :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kSse2,
        kernels::SimdTier::kAvx2})
    if (kernels::tier_supported(t)) out.push_back(t);
  return out;
}

/// Restores the entry tier when a test reconfigures SIMD dispatch.
struct TierGuard {
  kernels::SimdTier initial = kernels::active_tier();
  ~TierGuard() { kernels::configure(initial); }
};

// ---------------------------------------------------------------------------
// BitWriter vs the bit-at-a-time reference.

TEST(BitWriterDifferential, RandomStreamsWithRestartsMatchReference) {
  Rng rng("bitwriter-differential");
  for (int round = 0; round < 8; ++round) {
    Bytes fast_bytes, ref_bytes;
    jpeg::BitWriter fast(fast_bytes);
    RefBitWriter ref(ref_bytes);
    int restarts = 0;
    for (int op = 0; op < 4000; ++op) {
      const int count = rng.range(0, jpeg::BitWriter::kMaxPutBits);
      std::uint64_t bits =
          (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(rng.range(0, 0x7fffffff)))
           << 32) |
          static_cast<std::uint32_t>(rng.range(0, 0x7fffffff));
      // Every fourth word all-ones: forces runs of 0xFF bytes through the
      // stuffing path.
      if (rng.range(0, 3) == 0) bits = ~std::uint64_t{0};
      fast.put(bits, count);
      ref.put(bits, count);
      if (rng.range(0, 99) == 0) {
        const int n = restarts++ % 8;
        fast.restart_marker(n);
        ref.restart_marker(n);
      }
    }
    fast.flush();
    ref.flush();
    ASSERT_EQ(fast_bytes, ref_bytes) << "round " << round;
  }
}

TEST(BitWriterDifferential, AllOnesMaxWidthPutsStuffEveryByte) {
  Bytes fast_bytes, ref_bytes;
  jpeg::BitWriter fast(fast_bytes);
  RefBitWriter ref(ref_bytes);
  for (int i = 0; i < 64; ++i) {
    fast.put(~std::uint64_t{0}, jpeg::BitWriter::kMaxPutBits);
    ref.put(~std::uint64_t{0}, jpeg::BitWriter::kMaxPutBits);
  }
  fast.flush();
  ref.flush();
  EXPECT_EQ(fast_bytes, ref_bytes);
  // 64 * 57 bits = 456 bytes of 0xFF, each followed by a stuff byte.
  EXPECT_EQ(fast_bytes.size(), 456u * 2);
}

TEST(BitWriterDifferential, FusedCodePlusMagnitudeBoundary) {
  // The widest fused emission the codec produces: a 16-bit Huffman code
  // followed by an 11-bit magnitude, in one 27-bit put.
  Bytes fast_bytes, ref_bytes;
  jpeg::BitWriter fast(fast_bytes);
  RefBitWriter ref(ref_bytes);
  const std::uint64_t word = (0xffffull << 11) | 0x2aa;
  for (int lead = 0; lead < 8; ++lead) {
    fast.put(0, lead % 2);  // vary byte alignment
    ref.put(0, lead % 2);
    fast.put(word, 27);
    ref.put(word, 27);
  }
  fast.flush();
  ref.flush();
  EXPECT_EQ(fast_bytes, ref_bytes);
}

/// The fast writer and the reference fed the same calls.
struct WriterPair {
  Bytes fast_bytes, ref_bytes;
  jpeg::BitWriter fast{fast_bytes};
  RefBitWriter ref{ref_bytes};

  void put(std::uint64_t bits, int count) {
    fast.put(bits, count);
    ref.put(bits, count);
  }
  /// `count` bits (any number) in puts of at most kMaxPutBits.
  void put_wide(std::uint64_t bits, int count) {
    while (count > jpeg::BitWriter::kMaxPutBits) {
      count -= jpeg::BitWriter::kMaxPutBits;
      put(bits >> count, jpeg::BitWriter::kMaxPutBits);
    }
    put(bits, count);
  }
  void flush() {
    fast.flush();
    ref.flush();
  }
  void restart_marker(int n) {
    fast.restart_marker(n);
    ref.restart_marker(n);
  }
};

TEST(BitWriterDifferential, PutEndingAtExactlySixtyFourBufferedBits) {
  // Every split of one word into a lead and a put that completes it, with
  // and without 0xFF bytes in the word, then a put that starts the next.
  for (const std::uint64_t word :
       {0x0123456789abcdefull, 0xff00ff00ff00ff00ull, ~0ull}) {
    for (int lead = 64 - jpeg::BitWriter::kMaxPutBits; lead < 64; ++lead) {
      WriterPair w;
      w.put(word >> (64 - lead), lead);
      w.put(word, 64 - lead);
      EXPECT_EQ(w.fast_bytes.size(), w.ref_bytes.size()) << "lead " << lead;
      w.put(0x5, 3);
      w.flush();
      ASSERT_EQ(w.fast_bytes, w.ref_bytes)
          << "word " << std::hex << word << std::dec << " lead " << lead;
    }
  }
}

TEST(BitWriterDifferential, FlushAtEveryResidue) {
  for (const std::uint64_t word :
       {0x0123456789abcdefull, 0xfffefffefffefffeull, ~0ull}) {
    for (int residue = 0; residue < 64; ++residue) {
      // A full word first, so the residue sits behind a drained word.
      WriterPair w;
      w.put_wide(0xa5a5a5a5a5a5a5a5ull, 64);
      w.put_wide(residue ? word >> (64 - residue) : 0, residue);
      w.flush();
      ASSERT_EQ(w.fast_bytes, w.ref_bytes)
          << "word " << std::hex << word << std::dec << " residue "
          << residue;
      w.flush();  // idempotent once empty
      EXPECT_EQ(w.fast_bytes, w.ref_bytes) << "residue " << residue;
    }
  }
}

TEST(BitWriterDifferential, RestartMarkerStraightAfterAFullWord) {
  for (const std::uint64_t word :
       {0x0123456789abcdefull, 0x00000000000000ffull, ~0ull}) {
    WriterPair w;
    for (int n = 0; n < 8; ++n) {
      w.put_wide(word, 64);  // the writer holds no bits now
      w.restart_marker(n);
      w.put(0x3, 2);  // and a partial byte before the next marker
      w.restart_marker((n + 1) % 8);
    }
    w.flush();
    ASSERT_EQ(w.fast_bytes, w.ref_bytes) << std::hex << word;
  }
}

TEST(BitWriterDifferential, FfBytesStraddlingTheWordBoundary) {
  // 0xFF runs that end one word and begin the next, at every bit offset,
  // so the stuffing path and the straight append meet at the boundary.
  for (int offset = 0; offset < 64; ++offset) {
    WriterPair w;
    w.put_wide(0, offset);
    w.put_wide(0x123456789abcde00ull, 56);  // word ends in 8 zero bits
    w.put_wide(~std::uint64_t{0}, 24);      // straddles the boundary
    w.put_wide(0x0123456789abcdefull, 64);
    w.put_wide(~std::uint64_t{0}, 16);
    w.flush();
    ASSERT_EQ(w.fast_bytes, w.ref_bytes) << "offset " << offset;
  }
}

TEST(BitWriter, ZeroCountPutIsANoop) {
  Bytes out;
  jpeg::BitWriter w(out);
  w.put(0xdeadbeef, 0);
  EXPECT_TRUE(out.empty());
  w.put(0x5, 3);
  w.put(0xffff, 0);
  w.flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0xbf);  // 101 + 11111 padding
}

TEST(BitWriter, FlushPadsPartialByteWithOnes) {
  Bytes out;
  jpeg::BitWriter w(out);
  w.put(0, 2);
  w.flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0x3f);
  w.flush();  // idempotent once aligned
  EXPECT_EQ(out.size(), 1u);
}

// ---------------------------------------------------------------------------
// Fused kernels vs their scalar definitions, across every supported tier.

TEST(EncodeKernels, NonzeroMaskMatchesDirectWalkOnEveryTier) {
  Rng rng("nonzero-mask");
  std::vector<std::array<std::int16_t, 64>> blocks;
  blocks.push_back({});  // all zero
  std::array<std::int16_t, 64> dense;
  for (std::size_t i = 0; i < 64; ++i)
    dense[i] = static_cast<std::int16_t>(i + 1);
  blocks.push_back(dense);
  for (int i = 0; i < 200; ++i) {
    std::array<std::int16_t, 64> b{};
    for (auto& v : b)
      if (rng.range(0, 3) == 0)
        v = static_cast<std::int16_t>(rng.range(-1023, 1023));
    blocks.push_back(b);
  }
  for (kernels::SimdTier tier : supported_tiers()) {
    const kernels::KernelTable& k = kernels::table_for(tier);
    for (const auto& b : blocks) {
      std::uint64_t want = 0;
      for (int z = 0; z < 64; ++z)
        want |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(z)] != 0)
                << z;
      EXPECT_EQ(k.nonzero_mask(b.data()), want)
          << "tier " << kernels::to_string(tier);
    }
  }
}

TEST(EncodeKernels, QuantizeScanMatchesQuantizePlusMaskOnEveryTier) {
  Rng rng("quantize-scan");
  const kernels::QuantConstants qc =
      jpeg::quant_constants(jpeg::luma_quant_table(75));
  for (int i = 0; i < 100; ++i) {
    std::array<float, 64> raw;
    for (auto& v : raw) v = static_cast<float>(rng.range(-8192, 8191)) / 4.f;
    std::array<std::int16_t, 64> scalar_out{};
    const std::uint64_t scalar_mask =
        kernels::table_for(kernels::SimdTier::kScalar)
            .quantize_scan(raw.data(), qc, scalar_out.data());
    for (kernels::SimdTier tier : supported_tiers()) {
      const kernels::KernelTable& k = kernels::table_for(tier);
      std::array<std::int16_t, 64> plain{};
      k.quantize(raw.data(), qc, plain.data());
      std::array<std::int16_t, 64> fused{};
      const std::uint64_t mask = k.quantize_scan(raw.data(), qc, fused.data());
      EXPECT_EQ(fused, plain) << "tier " << kernels::to_string(tier);
      EXPECT_EQ(fused, scalar_out) << "tier " << kernels::to_string(tier);
      EXPECT_EQ(mask, scalar_mask) << "tier " << kernels::to_string(tier);
      std::uint64_t want = 0;
      for (int z = 0; z < 64; ++z)
        want |= static_cast<std::uint64_t>(
                    plain[static_cast<std::size_t>(z)] != 0)
                << z;
      EXPECT_EQ(mask, want) << "tier " << kernels::to_string(tier);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-stream differential: serialize() vs the seed encoder.

TEST(EncodeDifferential, CorpusMatchesSeedEncoderByteForByte) {
  const std::vector<core::Scheme> schemes = {
      core::Scheme::kNaive, core::Scheme::kBase, core::Scheme::kCompression,
      core::Scheme::kZero};
  for (jpeg::ChromaMode mode : {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    const jpeg::CoefficientImage base = scene_coeffs(mode);
    std::vector<jpeg::CoefficientImage> corpus = {base};
    for (core::Scheme s : schemes) corpus.push_back(perturbed(base, s));
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      for (jpeg::HuffmanMode hm :
           {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
        // 0 = single segment, 1 = one MCU per segment (maximum marker
        // density), 3 = short segments with a ragged tail, 64 = interval
        // larger than the whole scan. The parallel-segment serialize path
        // must hit the seed bytes at every density.
        for (int restart : {0, 1, 3, 64, jpeg::kRestartEveryMcuRow}) {
          jpeg::EncodeOptions opts;
          opts.huffman = hm;
          opts.restart_interval = restart;
          const Bytes want = ref_serialize(corpus[i], opts);
          ASSERT_EQ(jpeg::serialize(corpus[i], opts), want)
              << "chroma " << (mode == jpeg::ChromaMode::k420 ? 420 : 444)
              << " image " << i << " mode " << static_cast<int>(hm)
              << " restart " << restart;
        }
      }
    }
  }
}

TEST(EncodeDifferential, EveryTierProducesIdenticalBytes) {
  TierGuard guard;
  const jpeg::CoefficientImage img =
      perturbed(scene_coeffs(jpeg::ChromaMode::k444), core::Scheme::kBase);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    jpeg::EncodeOptions opts;
    opts.huffman = hm;
    Bytes scalar_bytes;
    for (kernels::SimdTier tier : supported_tiers()) {
      kernels::configure(tier);
      const Bytes got = jpeg::serialize(img, opts);
      if (tier == kernels::SimdTier::kScalar)
        scalar_bytes = got;
      else
        EXPECT_EQ(got, scalar_bytes) << "tier " << kernels::to_string(tier);
    }
  }
}

TEST(EncodeDifferential, GrayImageMatchesSeedEncoder) {
  GrayU8 gray(48, 40);
  Rng rng("gray-differential");
  for (int y = 0; y < gray.height(); ++y)
    for (int x = 0; x < gray.width(); ++x)
      gray.at(x, y) = static_cast<std::uint8_t>(rng.range(0, 255));
  const jpeg::CoefficientImage img =
      jpeg::reference::forward_transform(gray, 80);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    jpeg::EncodeOptions opts;
    opts.huffman = hm;
    EXPECT_EQ(jpeg::serialize(img, opts), ref_serialize(img, opts));
  }
}

// ---------------------------------------------------------------------------
// ScanIndex: purely an accelerator, never part of the output contract.

TEST(ScanIndex, SuppliedAndRebuiltIndexProduceIdenticalBytes) {
  const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 2, 96, 64);
  jpeg::ScanIndex scan;
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(s.image), 75, jpeg::ChromaMode::k444,
                              &scan);
  ASSERT_TRUE(scan.matches(img));
  jpeg::EncodeOptions opts;
  EXPECT_EQ(jpeg::serialize(img, opts, &scan), jpeg::serialize(img, opts));

  // A shape-mismatched index must be ignored (rebuilt), not trusted.
  jpeg::ScanIndex bogus;
  bogus.masks.resize(2);
  EXPECT_FALSE(bogus.matches(img));
  EXPECT_EQ(jpeg::serialize(img, opts, &bogus), jpeg::serialize(img, opts));
}

TEST(ScanIndex, ForwardTransformMasksMatchCoefficients) {
  const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 3, 64, 48);
  jpeg::ScanIndex scan;
  const jpeg::CoefficientImage img = jpeg::forward_transform(
      rgb_to_ycc(s.image), 70, jpeg::ChromaMode::k420, &scan);
  ASSERT_EQ(scan.masks.size(), 3u);
  for (int c = 0; c < 3; ++c) {
    const jpeg::Component& comp = img.component(c);
    ASSERT_EQ(scan.masks[static_cast<std::size_t>(c)].size(),
              comp.blocks.size());
    for (std::size_t b = 0; b < comp.blocks.size(); ++b) {
      std::uint64_t want = 0;
      for (int z = 0; z < 64; ++z)
        want |= static_cast<std::uint64_t>(
                    comp.blocks[b][static_cast<std::size_t>(z)] != 0)
                << z;
      ASSERT_EQ(scan.masks[static_cast<std::size_t>(c)][b], want)
          << "component " << c << " block " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Optimized-table round trips on degenerate inputs.

TEST(OptimizedRoundTrip, AllZeroImageSingleSymbolTables) {
  // Every block is zero: the DC histogram is a single symbol, the AC
  // histogram is EOB only — the degenerate case for build_optimal_spec.
  const jpeg::CoefficientImage img(32, 32, 3, jpeg::luma_quant_table(75),
                                   jpeg::chroma_quant_table(75));
  jpeg::EncodeOptions opts;
  opts.huffman = jpeg::HuffmanMode::kOptimized;
  const Bytes bytes = jpeg::serialize(img, opts);
  EXPECT_EQ(jpeg::serialize(img, opts), ref_serialize(img, opts));
  EXPECT_EQ(jpeg::parse(bytes), img);
}

TEST(OptimizedRoundTrip, DcOnlyImage) {
  jpeg::CoefficientImage img(48, 16, 3, jpeg::luma_quant_table(75),
                             jpeg::chroma_quant_table(75));
  int dc = -40;
  for (int c = 0; c < 3; ++c)
    for (auto& block : img.component(c).blocks) block[0] = static_cast<std::int16_t>(dc += 7);
  jpeg::EncodeOptions opts;
  opts.huffman = jpeg::HuffmanMode::kOptimized;
  const Bytes bytes = jpeg::serialize(img, opts);
  EXPECT_EQ(bytes, ref_serialize(img, opts));
  EXPECT_EQ(jpeg::parse(bytes), img);
}

TEST(OptimizedRoundTrip, RestartIntervalsExactAcrossModes) {
  const jpeg::CoefficientImage img =
      perturbed(scene_coeffs(jpeg::ChromaMode::k444), core::Scheme::kZero);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    for (int restart : {1, 2, 5}) {
      jpeg::EncodeOptions opts;
      opts.huffman = hm;
      opts.restart_interval = restart;
      EXPECT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img)
          << "mode " << static_cast<int>(hm) << " restart " << restart;
    }
  }
}

TEST(OptimizedRoundTrip, Chroma420Exact) {
  const jpeg::CoefficientImage img =
      perturbed(scene_coeffs(jpeg::ChromaMode::k420),
                core::Scheme::kCompression);
  jpeg::EncodeOptions opts;
  opts.huffman = jpeg::HuffmanMode::kOptimized;
  EXPECT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img);
}

// ---------------------------------------------------------------------------
// EncodeStats accounting.

/// Offset of the first entropy-coded byte: end of the SOS header segment.
std::size_t scan_start(const Bytes& jfif) {
  for (std::size_t i = 0; i + 3 < jfif.size(); ++i)
    if (jfif[i] == 0xff && jfif[i + 1] == 0xda) {
      const std::size_t len =
          (static_cast<std::size_t>(jfif[i + 2]) << 8) | jfif[i + 3];
      return i + 2 + len;
    }
  ADD_FAILURE() << "no SOS marker";
  return 0;
}

TEST(EncodeStats, EntropyBytesCoverExactlyTheScanSegment) {
  const jpeg::CoefficientImage img =
      perturbed(scene_coeffs(jpeg::ChromaMode::k444), core::Scheme::kBase);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    for (int restart : {0, 4}) {
      jpeg::EncodeOptions opts;
      opts.huffman = hm;
      opts.restart_interval = restart;
      jpeg::EncodeStats stats;
      const Bytes bytes = jpeg::serialize(img, opts, nullptr, &stats);
      // scan = everything between the SOS header and the EOI marker.
      EXPECT_EQ(stats.entropy_bytes, bytes.size() - scan_start(bytes) - 2);
    }
  }
}

TEST(EncodeStats, StandardModeReportsNoSavings) {
  const jpeg::CoefficientImage img = scene_coeffs(jpeg::ChromaMode::k444);
  jpeg::EncodeOptions opts;
  opts.huffman = jpeg::HuffmanMode::kStandard;
  jpeg::EncodeStats stats;
  jpeg::serialize(img, opts, nullptr, &stats);
  EXPECT_EQ(stats.saved_bytes, 0u);
  EXPECT_GT(stats.entropy_bytes, 0u);
}

TEST(EncodeStats, OptimizedTablesShrinkTheEntropySegment) {
  const jpeg::CoefficientImage img =
      perturbed(scene_coeffs(jpeg::ChromaMode::k444), core::Scheme::kBase);
  jpeg::EncodeStats opt_stats, std_stats;
  jpeg::EncodeOptions opts;
  opts.huffman = jpeg::HuffmanMode::kOptimized;
  jpeg::serialize(img, opts, nullptr, &opt_stats);
  opts.huffman = jpeg::HuffmanMode::kStandard;
  jpeg::serialize(img, opts, nullptr, &std_stats);
  EXPECT_GT(opt_stats.saved_bytes, 0u);
  EXPECT_LT(opt_stats.entropy_bytes, std_stats.entropy_bytes);
}

// ---------------------------------------------------------------------------
// Serving-path metrics: the encode histogram/counters surface in the same
// registry `store stats --json` dumps.

TEST(EncodeMetrics, PspServingPathFeedsEncodeCounters) {
  psp::PspService svc;
  const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 4, 64, 48);
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(s.image), 75);
  const std::string id = svc.upload(jpeg::serialize(img), {});
  svc.apply_transform(id, {transform::rotate(180)},
                      psp::DeliveryMode::kCoefficients);
  const std::uint64_t entropy =
      metrics::counter("psp.codec.entropy_bytes").value();
  EXPECT_GT(entropy, 0u);
  const std::string dump = metrics::dump_json();
  EXPECT_NE(dump.find("psp.codec.encode_ms"), std::string::npos);
  EXPECT_NE(dump.find("psp.codec.entropy_bytes"), std::string::npos);
  EXPECT_NE(dump.find("psp.codec.entropy_saved_bytes"), std::string::npos);
}

}  // namespace
