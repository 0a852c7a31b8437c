#include "puppies/jpeg/codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "puppies/exec/parallel_for.h"
#include "puppies/fault/fault.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/huffman.h"
#include "puppies/jpeg/zigzag.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"

namespace puppies::jpeg {

namespace {

constexpr std::uint8_t kMarkerPrefix = 0xff;
constexpr std::uint8_t kSOI = 0xd8;
constexpr std::uint8_t kEOI = 0xd9;
constexpr std::uint8_t kAPP0 = 0xe0;
constexpr std::uint8_t kDQT = 0xdb;
constexpr std::uint8_t kSOF0 = 0xc0;
constexpr std::uint8_t kDHT = 0xc4;
constexpr std::uint8_t kSOS = 0xda;

// ---------------------------------------------------------------------------
// Entropy coding. The scan decomposes into restart segments (the whole scan
// is one segment when there is no restart interval). Each segment starts
// with fresh DC predictors and — because BitWriter::flush() pads to a byte
// boundary before every RSTn — owns a self-contained byte range, so
// segments feed statistics gathering, entropy emission and decoding
// independently on the exec pool and concatenate deterministically
// (DESIGN.md §11, §13).

/// Restart segment s of a scan of `total` MCUs at interval `interval` covers
/// MCUs [begin(s), end(s)); no restart interval = one segment.
struct SegmentGrid {
  SegmentGrid(int total_mcus, int restart_interval)
      : total(total_mcus),
        interval(restart_interval),
        count(interval > 0 ? (total + interval - 1) / interval : 1) {}
  int begin(int s) const { return interval > 0 ? s * interval : 0; }
  int end(int s) const {
    return interval > 0 ? std::min(total, (s + 1) * interval) : total;
  }

  int total;
  int interval;
  int count;
};

/// Run-length walk of one block driven by its nonzero mask: set bits are
/// visited via countr_zero, zero runs come from position deltas. Emits
/// exactly the seed scan's symbol sequence (ZRL for runs > 15, EOB iff the
/// block ends in zeros).
template <typename DcSink, typename AcSink>
void walk_block(const CoefBlock& block, std::uint64_t nonzero, int& prev_dc,
                DcSink&& dc_sink, AcSink&& ac_sink) {
  const int diff = block[0] - prev_dc;
  prev_dc = block[0];
  const int dc_cat = magnitude_category(diff);
  dc_sink(static_cast<std::uint8_t>(dc_cat), diff, dc_cat);

  std::uint64_t rest = nonzero & ~std::uint64_t{1};  // AC positions only
  int prev_z = 0;
  while (rest != 0) {
    const int z = std::countr_zero(rest);
    rest &= rest - 1;
    int run = z - prev_z - 1;
    while (run > 15) {
      ac_sink(0xf0, 0, 0);  // ZRL
      run -= 16;
    }
    const int v = block[static_cast<std::size_t>(z)];
    const int cat = magnitude_category(v);
    ac_sink(static_cast<std::uint8_t>((run << 4) | cat), v, cat);
    prev_z = z;
  }
  if (prev_z < 63) ac_sink(0x00, 0, 0);  // EOB
}

int huff_table_id_for_component(int c) { return c == 0 ? 0 : 1; }

/// Visits the blocks of MCUs [mcu_begin, mcu_end) in scan (MCU-interleaved)
/// order — one restart segment's worth when a restart interval is in force.
template <typename Visit>
void for_each_block_in_mcu_range(const CoefficientImage& img, int mcu_begin,
                                 int mcu_end, Visit&& visit) {
  const int ncomp = img.component_count();
  const int mcu_cols = img.mcu_cols();
  int my = mcu_begin / mcu_cols, mx = mcu_begin % mcu_cols;
  for (int m = mcu_begin; m < mcu_end; ++m) {
    for (int c = 0; c < ncomp; ++c) {
      const Component& comp = img.component(c);
      for (int by = 0; by < comp.v; ++by)
        for (int bx = 0; bx < comp.h; ++bx)
          visit(c, mx * comp.h + bx, my * comp.v + by);
    }
    if (++mx == mcu_cols) {
      mx = 0;
      ++my;
    }
  }
}

/// Looks up block (bx, by) of component c in a validated ScanIndex.
inline std::uint64_t mask_at(const ScanIndex& scan, const CoefficientImage& img,
                             int c, int bx, int by) {
  return scan.masks[static_cast<std::size_t>(c)]
                   [static_cast<std::size_t>(by) *
                        img.component(c).blocks_w +
                    static_cast<std::size_t>(bx)];
}

/// The one block walker of the encode side: feeds every symbol of restart
/// segment s to `dc_sink(table, symbol, value, category)` / `ac_sink(...)`,
/// with DC predictors starting at 0 (a segment begins either at the scan
/// start or just after a restart marker, both of which reset prediction).
/// Histogram gathering and entropy emission both walk through here.
template <typename DcSink, typename AcSink>
void walk_segment(const CoefficientImage& img, const ScanIndex& scan,
                  const SegmentGrid& grid, int s, DcSink&& dc_sink,
                  AcSink&& ac_sink) {
  int prev_dc[3] = {0, 0, 0};
  for_each_block_in_mcu_range(
      img, grid.begin(s), grid.end(s), [&](int c, int bx, int by) {
        const int t = huff_table_id_for_component(c);
        walk_block(
            img.component(c).block(bx, by), mask_at(scan, img, c, bx, by),
            prev_dc[c],
            [&](std::uint8_t sym, int v, int cat) { dc_sink(t, sym, v, cat); },
            [&](std::uint8_t sym, int v, int cat) {
              ac_sink(t, sym, v, cat);
            });
      });
}

/// Nonzero masks for every block, via the active nonzero_mask kernel — the
/// fallback when the writer is handed coefficients that did not come through
/// forward_transform (lossless edits, requantize, parse). Filled on the pool
/// one block row at a time; rows own disjoint blocks, so the fill is
/// race-free.
ScanIndex build_masks(const CoefficientImage& img) {
  const kernels::KernelTable& k = kernels::active();
  ScanIndex scan;
  scan.masks.resize(static_cast<std::size_t>(img.component_count()));
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& comp = img.component(c);
    auto& masks = scan.masks[static_cast<std::size_t>(c)];
    masks.resize(comp.blocks.size());
    const auto w = static_cast<std::size_t>(comp.blocks_w);
    exec::parallel_for(static_cast<std::size_t>(comp.blocks_h),
                       [&](std::size_t by) {
                         for (std::size_t i = by * w; i < (by + 1) * w; ++i)
                           masks[i] = k.nonzero_mask(comp.blocks[i].data());
                       });
  }
  return scan;
}

/// Bits a symbol stream costs under `enc`, priced from its histogram. The
/// magnitude bits are table-independent, so the table-to-table delta is
/// exactly the optimized-Huffman saving.
long long priced_bits(const std::array<long, 256>& freq,
                      const HuffmanEncoder& enc) {
  long long bits = 0;
  for (int s = 0; s < 256; ++s)
    if (freq[static_cast<std::size_t>(s)])
      bits += freq[static_cast<std::size_t>(s)] *
              enc.code_length(static_cast<std::uint8_t>(s));
  return bits;
}

// --------------------------------------------------------------------------
// Marker segment writers.

void write_marker(ByteWriter& w, std::uint8_t marker) {
  w.u8(kMarkerPrefix);
  w.u8(marker);
}

void write_app0(ByteWriter& w) {
  write_marker(w, kAPP0);
  w.u16(16);
  const char jfif[5] = {'J', 'F', 'I', 'F', 0};
  for (char c : jfif) w.u8(static_cast<std::uint8_t>(c));
  w.u8(1);  // version 1.1
  w.u8(1);
  w.u8(0);   // units: none
  w.u16(1);  // x density
  w.u16(1);  // y density
  w.u8(0);   // no thumbnail
  w.u8(0);
}

void write_dqt(ByteWriter& w, const QuantTable& t, int id) {
  write_marker(w, kDQT);
  w.u16(2 + 1 + 64);
  w.u8(static_cast<std::uint8_t>(id));  // 8-bit precision, table id
  for (int z = 0; z < 64; ++z) {
    require(t.q[static_cast<std::size_t>(z)] >= 1 &&
                t.q[static_cast<std::size_t>(z)] <= 255,
            "8-bit DQT entry out of range");
    w.u8(static_cast<std::uint8_t>(t.q[static_cast<std::size_t>(z)]));
  }
}

void write_sof0(ByteWriter& w, const CoefficientImage& img) {
  const int ncomp = img.component_count();
  write_marker(w, kSOF0);
  w.u16(static_cast<std::uint16_t>(8 + 3 * ncomp));
  w.u8(8);  // precision
  require(img.height() <= 0xffff && img.width() <= 0xffff, "image too large");
  w.u16(static_cast<std::uint16_t>(img.height()));
  w.u16(static_cast<std::uint16_t>(img.width()));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    const Component& comp = img.component(c);
    w.u8(static_cast<std::uint8_t>(c + 1));  // component id
    w.u8(static_cast<std::uint8_t>((comp.h << 4) | comp.v));
    w.u8(static_cast<std::uint8_t>(comp.quant_index));
  }
}

void write_dht(ByteWriter& w, const HuffmanSpec& spec, int table_class,
               int id) {
  write_marker(w, kDHT);
  w.u16(static_cast<std::uint16_t>(2 + 1 + 16 + spec.values.size()));
  w.u8(static_cast<std::uint8_t>((table_class << 4) | id));
  for (int l = 1; l <= 16; ++l) w.u8(spec.bits[static_cast<std::size_t>(l)]);
  w.raw(spec.values);
}

void write_sos(ByteWriter& w, const CoefficientImage& img) {
  const int ncomp = img.component_count();
  write_marker(w, kSOS);
  w.u16(static_cast<std::uint16_t>(6 + 2 * ncomp));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    w.u8(static_cast<std::uint8_t>(c + 1));
    const int t = huff_table_id_for_component(c);
    w.u8(static_cast<std::uint8_t>((t << 4) | t));
  }
  w.u8(0);   // spectral start
  w.u8(63);  // spectral end
  w.u8(0);   // successive approximation
}

/// Everything before the entropy-coded data: SOI through SOS, DRI included
/// when a restart interval is in force.
void write_headers(ByteWriter& w, const CoefficientImage& coeffs,
                   const HuffmanSpec dc_spec[2], const HuffmanSpec ac_spec[2],
                   int restart_interval) {
  write_marker(w, kSOI);
  write_app0(w);
  write_dqt(w, coeffs.qtable(0), 0);
  if (coeffs.component_count() == 3) write_dqt(w, coeffs.qtable(1), 1);
  write_sof0(w, coeffs);
  write_dht(w, dc_spec[0], 0, 0);
  write_dht(w, ac_spec[0], 1, 0);
  if (coeffs.component_count() == 3) {
    write_dht(w, dc_spec[1], 0, 1);
    write_dht(w, ac_spec[1], 1, 1);
  }
  if (restart_interval > 0) {
    write_marker(w, 0xdd);  // DRI
    w.u16(4);
    w.u16(static_cast<std::uint16_t>(restart_interval));
  }
  write_sos(w, coeffs);
}

// --------------------------------------------------------------------------
// Parser helpers.

struct FrameComponent {
  int id = 0;
  int h = 1;
  int v = 1;
  int quant_index = 0;
  int dc_table = 0;
  int ac_table = 0;
};

/// Decodes one block (DC + AC run-length symbols) into `block` in zig-zag
/// order. The fused LUT path resolves symbol and magnitude in one wide peek
/// per coefficient; the slow branch is the verbatim seed sequence
/// (decode() + get() + extend), taken for codes longer than 8 bits and near
/// segment boundaries, so error strings and bit consumption on corrupt
/// input are unchanged. `block` must be all-zero on entry (freshly
/// constructed CoefficientImage blocks are; the serial-fallback path
/// re-zeroes explicitly) — only nonzero coefficients are written, which
/// saves a full second write pass over the coefficient planes.
void decode_block(BitReader& bits, const HuffmanDecoder& dc,
                  const HuffmanDecoder& ac, int& dc_pred, CoefBlock& block) {
  std::uint8_t dc_cat;
  int diff;
  if (dc.decode_fused<true>(bits, dc_cat, diff)) {
    if (dc_cat > 11) throw ParseError("DC category out of range");
  } else {
    dc_cat = dc.decode(bits);
    if (dc_cat > 11) throw ParseError("DC category out of range");
    diff = extend_magnitude(bits.get(dc_cat), dc_cat);
  }
  dc_pred += diff;
  block[0] = static_cast<std::int16_t>(dc_pred);

  int z = 1;
  while (z < 64) {
    std::uint8_t sym;
    int v;
    if (!ac.decode_fused<false>(bits, sym, v)) {
      sym = ac.decode(bits);
      if (sym == 0x00) break;  // EOB
      const int run = sym >> 4, cat = sym & 0xf;
      if (sym == 0xf0) {
        z += 16;
        continue;
      }
      z += run;
      if (z > 63 || cat == 0 || cat > 10) throw ParseError("corrupt AC symbol");
      v = extend_magnitude(bits.get(cat), cat);
    } else {
      if (sym == 0x00) break;  // EOB
      const int run = sym >> 4, cat = sym & 0xf;
      if (sym == 0xf0) {
        z += 16;
        continue;
      }
      z += run;
      if (z > 63 || cat == 0 || cat > 10) throw ParseError("corrupt AC symbol");
    }
    block[static_cast<std::size_t>(z)] = static_cast<std::int16_t>(v);
    ++z;
  }
}

}  // namespace

bool ScanIndex::matches(const CoefficientImage& img) const {
  if (masks.size() != static_cast<std::size_t>(img.component_count()))
    return false;
  for (int c = 0; c < img.component_count(); ++c)
    if (masks[static_cast<std::size_t>(c)].size() !=
        img.component(c).blocks.size())
      return false;
  return true;
}

Bytes serialize(const CoefficientImage& coeffs, const EncodeOptions& opts,
                const ScanIndex* scan, EncodeStats* stats) {
  require(coeffs.component_count() == 1 || coeffs.component_count() == 3,
          "serialize supports 1 or 3 components");
  if (stats) *stats = EncodeStats{};
  const int restart_interval = opts.restart_interval == kRestartEveryMcuRow
                                   ? coeffs.mcu_cols()
                                   : opts.restart_interval;
  require(restart_interval >= 0 && restart_interval <= 0xffff,
          "restart interval out of range");
  const SegmentGrid grid(coeffs.mcu_count(), restart_interval);
  const auto nseg = static_cast<std::size_t>(grid.count);

  // Trust a supplied index only if its shape matches; otherwise build the
  // masks here. Either way the masks are exact, so the output bytes are
  // unaffected — but a rebuild fell off the forward_transform fast path, so
  // make it observable (`store stats --json`).
  ScanIndex local_scan;
  if (!scan || !scan->matches(coeffs)) {
    metrics::counter("psp.codec.scanindex_rebuilds").add();
    local_scan = build_masks(coeffs);
    scan = &local_scan;
  }

  HuffmanSpec dc_spec[2] = {std_dc_luma(), std_dc_chroma()};
  HuffmanSpec ac_spec[2] = {std_ac_luma(), std_ac_chroma()};
  if (opts.huffman == HuffmanMode::kOptimized) {
    // Histograms gathered on the pool into at most 64 slots (counts add up
    // the same in any order), then folded.
    const std::size_t grain = (nseg + 63) / 64;
    std::vector<SymbolHistogram> hist(exec::chunk_count(nseg, grain));
    exec::parallel_for_chunked(
        nseg, grain, [&](std::size_t chunk, std::size_t s0, std::size_t s1) {
          auto& freq = hist[chunk].freq;
          for (std::size_t s = s0; s < s1; ++s)
            walk_segment(
                coeffs, *scan, grid, static_cast<int>(s),
                [&](int t, std::uint8_t sym, int, int) { ++freq[0][t][sym]; },
                [&](int t, std::uint8_t sym, int, int) { ++freq[1][t][sym]; });
        });
    SymbolHistogram sym;
    for (const SymbolHistogram& h : hist) sym.merge(h);
    dc_spec[0] = build_optimal_spec(sym.freq[0][0]);
    ac_spec[0] = build_optimal_spec(sym.freq[1][0]);
    if (coeffs.component_count() == 3) {
      dc_spec[1] = build_optimal_spec(sym.freq[0][1]);
      ac_spec[1] = build_optimal_spec(sym.freq[1][1]);
    }
    if (stats) {
      // Price the histograms under both table sets: the magnitude bits are
      // identical, so the length-weighted frequency delta is the exact
      // optimized-table saving.
      long long saved_bits = 0;
      const int ntables = coeffs.component_count() == 3 ? 2 : 1;
      for (int t = 0; t < ntables; ++t) {
        saved_bits +=
            priced_bits(sym.freq[0][t],
                        HuffmanEncoder(t == 0 ? std_dc_luma()
                                              : std_dc_chroma())) -
            priced_bits(sym.freq[0][t], HuffmanEncoder(dc_spec[t]));
        saved_bits +=
            priced_bits(sym.freq[1][t],
                        HuffmanEncoder(t == 0 ? std_ac_luma()
                                              : std_ac_chroma())) -
            priced_bits(sym.freq[1][t], HuffmanEncoder(ac_spec[t]));
      }
      if (saved_bits > 0)
        stats->saved_bytes = static_cast<std::size_t>(saved_bits / 8);
    }
  }

  ByteWriter w;
  write_headers(w, coeffs, dc_spec, ac_spec, restart_interval);
  Bytes out = w.take();
  const std::size_t entropy_start = out.size();
  // Segment 0 writes straight into `out` (a single-segment scan gains no
  // copy); every other segment into its own buffer. Each segment is
  // entropy-coded on the exec pool with fresh DC predictors and a
  // byte-aligned flush, so the bytes never depend on the thread count.
  std::vector<Bytes> seg(nseg);
  {
    const HuffmanEncoder dc_enc[2] = {HuffmanEncoder(dc_spec[0]),
                                      HuffmanEncoder(dc_spec[1])};
    const HuffmanEncoder ac_enc[2] = {HuffmanEncoder(ac_spec[0]),
                                      HuffmanEncoder(ac_spec[1])};
    exec::parallel_for(nseg, [&](std::size_t s) {
      Bytes& b = s == 0 ? out : seg[s];
      const std::size_t b0 = b.size();
      BitWriter bits(b);
      walk_segment(
          coeffs, *scan, grid, static_cast<int>(s),
          [&](int t, std::uint8_t sym, int v, int cat) {
            dc_enc[t].emit_with_magnitude(bits, sym, magnitude_bits(v, cat),
                                          cat);
          },
          [&](int t, std::uint8_t sym, int v, int cat) {
            ac_enc[t].emit_with_magnitude(bits, sym, magnitude_bits(v, cat),
                                          cat);
          });
      bits.flush();
      // Fault hook: flip a byte of this finished segment, so tests can
      // prove a bad worker stays contained to its segment.
      if (fault::point("jpeg.encode.segment") && b.size() > b0)
        b[b0 + (b.size() - b0) / 2] ^= 0x40;
    });
  }

  std::size_t total = out.size() + 2;  // EOI
  for (std::size_t s = 1; s < nseg; ++s) total += 2 + seg[s].size();
  out.reserve(total);
  for (std::size_t s = 1; s < nseg; ++s) {
    // The marker a serial writer emits before MCU s * R: RST((s - 1) % 8).
    out.push_back(kMarkerPrefix);
    out.push_back(static_cast<std::uint8_t>(0xd0 + (s - 1) % 8));
    out.insert(out.end(), seg[s].begin(), seg[s].end());
  }
  if (stats) stats->entropy_bytes = out.size() - entropy_start;
  out.push_back(kMarkerPrefix);
  out.push_back(kEOI);
  return out;
}

std::vector<ScanSegment> scan_restart_segments(
    std::span<const std::uint8_t> entropy, int expected_segments) {
  std::vector<ScanSegment> segs;
  if (expected_segments <= 0) return segs;
  segs.reserve(static_cast<std::size_t>(expected_segments));
  std::size_t begin = 0;
  std::size_t i = 0;
  const std::size_t n = entropy.size();
  while (i < n) {
    const void* ff = std::memchr(entropy.data() + i, 0xff, n - i);
    if (!ff) break;
    i = static_cast<std::size_t>(static_cast<const std::uint8_t*>(ff) -
                                 entropy.data());
    // A dangling 0xFF as the very last byte cannot be classified; leave it
    // inside the final segment, whose reader reports it iff bits past it
    // are actually needed — exactly like the serial decoder.
    if (i + 1 >= n) break;
    const std::uint8_t m = entropy[i + 1];
    if (m == 0x00) {  // stuffed data byte
      i += 2;
      continue;
    }
    if (m >= 0xd0 && m <= 0xd7) {  // RSTn: segment boundary
      // The serial decoder requires marker index s % 8 after segment s.
      if (m != 0xd0 + segs.size() % 8) return {};
      segs.push_back({begin, i});
      // More segments follow this marker than the header promised.
      if (static_cast<int>(segs.size()) >= expected_segments) return {};
      begin = i + 2;
      i += 2;
      continue;
    }
    // Any other marker terminates the scan.
    segs.push_back({begin, i});
    if (static_cast<int>(segs.size()) != expected_segments) return {};
    return segs;
  }
  segs.push_back({begin, n});
  if (static_cast<int>(segs.size()) != expected_segments) return {};
  return segs;
}

namespace {

// 1 GP: both codec directions stream MCU-row bands (pixel scratch is
// O(width × chunk rows)), so the guard only has to bound the coefficient
// planes — ~6 GB worst case at 4:4:4, an explicit operator opt-in via the
// env var below that, and still small enough to reject a crafted
// 65535×65535 (4.29 GP) header outright.
constexpr std::size_t kDefaultMaxDecodePixels = 1'000'000'000;

/// 0 = unset: resolve PUPPIES_MAX_PIXELS, else the default.
std::atomic<std::size_t> g_max_decode_pixels{0};

/// The coding process a non-baseline SOFn marker announces (ITU-T T.81
/// Table B.1), or null for any other marker. 0xc4, 0xc8 and 0xcc share the
/// range but are DHT, JPG and DAC.
const char* unsupported_sof(std::uint8_t marker) {
  switch (marker) {
    case 0xc1:
      return "extended sequential";
    case 0xc2:
      return "progressive";
    case 0xc3:
      return "lossless";
    case 0xc5:
    case 0xc6:
    case 0xc7:
      return "hierarchical";
    case 0xc9:
    case 0xca:
    case 0xcb:
    case 0xcd:
    case 0xce:
    case 0xcf:
      return "arithmetic-coded";
    default:
      return nullptr;
  }
}

CoefficientImage parse_impl(std::span<const std::uint8_t> data,
                            ParseStats* stats) {
  ByteReader r(data);
  if (r.u8() != kMarkerPrefix || r.u8() != kSOI)
    throw ParseError("missing SOI");

  QuantTable qtables[2] = {flat_quant_table(1), flat_quant_table(1)};
  bool have_q[2] = {false, false};
  HuffmanSpec huff[2][2];  // [class][id]
  bool have_huff[2][2] = {{false, false}, {false, false}};

  int width = 0, height = 0;
  int restart_interval = 0;
  std::vector<FrameComponent> frame_comps;

  for (;;) {
    std::uint8_t b = r.u8();
    if (b != kMarkerPrefix) throw ParseError("expected marker");
    std::uint8_t marker = r.u8();
    while (marker == kMarkerPrefix) marker = r.u8();  // fill bytes

    if (marker == kEOI) throw ParseError("EOI before SOS");
    if (marker == kSOS) break;
    if (const char* process = unsupported_sof(marker))
      throw ParseError(std::string(process) + " JPEG (SOF" +
                       std::to_string(marker - kSOF0) + ") not supported");

    const std::uint16_t len = r.u16();
    if (len < 2) throw ParseError("bad segment length");
    Bytes seg = r.raw(len - 2);
    ByteReader s(seg);

    switch (marker) {
      case kDQT: {
        while (!s.done()) {
          const std::uint8_t pq_tq = s.u8();
          const int precision = pq_tq >> 4;
          const int id = pq_tq & 0xf;
          if (id > 1) throw ParseError("only 2 quant tables supported");
          for (int z = 0; z < 64; ++z)
            qtables[id].q[static_cast<std::size_t>(z)] =
                precision ? s.u16() : s.u8();
          have_q[id] = true;
        }
        break;
      }
      case kSOF0: {
        if (s.u8() != 8) throw ParseError("only 8-bit precision supported");
        height = s.u16();
        width = s.u16();
        // Allocation guard: a crafted SOF (up to 65535x65535) would commit
        // the decoder to multi-GB coefficient buffers before decoding one
        // MCU. Reject by pixel footprint before any buffer is sized.
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
        if (pixels > max_decode_pixels())
          throw ParseError(
              "SOF dimensions " + std::to_string(width) + "x" +
              std::to_string(height) + " exceed the decode limit of " +
              std::to_string(max_decode_pixels()) +
              " pixels (PUPPIES_MAX_PIXELS)");
        const int ncomp = s.u8();
        if (ncomp != 1 && ncomp != 3)
          throw ParseError("only 1 or 3 components supported");
        for (int c = 0; c < ncomp; ++c) {
          FrameComponent fc;
          fc.id = s.u8();
          const std::uint8_t hv = s.u8();
          fc.h = hv >> 4;
          fc.v = hv & 0xf;
          fc.quant_index = s.u8();
          if (fc.quant_index > 1) throw ParseError("quant table id > 1");
          frame_comps.push_back(fc);
        }
        break;
      }
      case kDHT: {
        while (!s.done()) {
          const std::uint8_t tc_th = s.u8();
          const int tc = tc_th >> 4, th = tc_th & 0xf;
          if (tc > 1 || th > 1) throw ParseError("huffman table id");
          HuffmanSpec spec;
          int total = 0;
          for (int l = 1; l <= 16; ++l) {
            spec.bits[static_cast<std::size_t>(l)] = s.u8();
            total += spec.bits[static_cast<std::size_t>(l)];
          }
          spec.values = s.raw(static_cast<std::size_t>(total));
          huff[tc][th] = std::move(spec);
          have_huff[tc][th] = true;
        }
        break;
      }
      case 0xdd: {  // DRI
        restart_interval = s.u16();
        break;
      }
      default:
        // APPn / COM / anything else: skipped.
        break;
    }
  }

  if (frame_comps.empty() || width == 0 || height == 0)
    throw ParseError("missing SOF0 before SOS");

  // Determine the chroma mode from the sampling factors.
  ChromaMode mode = ChromaMode::k444;
  if (frame_comps.size() == 3) {
    const bool all_111 = frame_comps[0].h == 1 && frame_comps[0].v == 1 &&
                         frame_comps[1].h == 1 && frame_comps[1].v == 1 &&
                         frame_comps[2].h == 1 && frame_comps[2].v == 1;
    const bool is_420 = frame_comps[0].h == 2 && frame_comps[0].v == 2 &&
                        frame_comps[1].h == 1 && frame_comps[1].v == 1 &&
                        frame_comps[2].h == 1 && frame_comps[2].v == 1;
    if (is_420)
      mode = ChromaMode::k420;
    else if (!all_111)
      throw ParseError("only 4:4:4 and 4:2:0 sampling supported");
  } else if (frame_comps[0].h != 1 || frame_comps[0].v != 1) {
    throw ParseError("grayscale must use 1x1 sampling");
  }

  // SOS header.
  const std::uint16_t sos_len = r.u16();
  Bytes sos = r.raw(sos_len - 2);
  ByteReader s(sos);
  const int scan_ncomp = s.u8();
  if (scan_ncomp != static_cast<int>(frame_comps.size()))
    throw ParseError("scan/frame component mismatch");
  for (int c = 0; c < scan_ncomp; ++c) {
    const int id = s.u8();
    if (id != frame_comps[static_cast<std::size_t>(c)].id)
      throw ParseError("scan component order mismatch");
    const std::uint8_t td_ta = s.u8();
    // Baseline allows table ids 0 and 1 only; anything else would index
    // past the two-decoder tables below.
    if ((td_ta >> 4) > 1 || (td_ta & 0xf) > 1)
      throw ParseError("scan references an invalid Huffman table id");
    frame_comps[static_cast<std::size_t>(c)].dc_table = td_ta >> 4;
    frame_comps[static_cast<std::size_t>(c)].ac_table = td_ta & 0xf;
  }

  CoefficientImage img(width, height, scan_ncomp, qtables[0], qtables[1],
                       mode);
  for (int c = 0; c < scan_ncomp; ++c)
    img.component(c).quant_index =
        frame_comps[static_cast<std::size_t>(c)].quant_index;
  if (!have_q[img.component(0).quant_index])
    throw ParseError("missing quant table");

  std::vector<HuffmanDecoder> dc_dec, ac_dec;
  for (int t = 0; t < 2; ++t) {
    dc_dec.emplace_back(have_huff[0][t] ? huff[0][t] : std_dc_luma());
    ac_dec.emplace_back(have_huff[1][t] ? huff[1][t] : std_ac_luma());
  }

  // Entropy-coded data runs from here to the next marker.
  const std::size_t entropy_start = data.size() - r.remaining();
  const std::span<const std::uint8_t> entropy = data.subspan(entropy_start);

  const SegmentGrid grid(img.mcu_count(), restart_interval);
  if (stats) {
    stats->restart_interval = restart_interval;
    stats->restart_segments = grid.count;
    stats->parallel = false;
  }

  // The one MCU-range decode body: restart segment s from `bits`, with fresh
  // DC predictors. Writes only that segment's blocks.
  const auto decode_segment = [&](BitReader& bits, int s) {
    int prev_dc[3] = {0, 0, 0};
    for_each_block_in_mcu_range(
        img, grid.begin(s), grid.end(s), [&](int c, int bx, int by) {
          const FrameComponent& fc = frame_comps[static_cast<std::size_t>(c)];
          decode_block(bits, dc_dec[static_cast<std::size_t>(fc.dc_table)],
                       ac_dec[static_cast<std::size_t>(fc.ac_table)],
                       prev_dc[c], img.component(c).block(bx, by));
        });
  };

  // The segment-parallel decode needs a marker-aware partition of the scan;
  // a scan whose markers do not partition cleanly decodes serially. On a
  // one-lane pool the segment path would only be the serial decode plus
  // this pre-scan, so it is skipped.
  const bool parallel = grid.count > 1 && exec::thread_count() > 1;
  std::vector<ScanSegment> segs;
  if (parallel) segs = scan_restart_segments(entropy, grid.count);

  // Segment-parallel decode — the exact inverse of the scan writer. Each
  // segment gets its own reader over its byte range; workers write disjoint
  // blocks, so success is bit-identical to the serial decode at any thread
  // count. Any anomaly (a ParseError inside a segment, leftover bytes before
  // an RSTn) reruns the serial decoder, which owns the error message.
  bool decoded = false;
  if (parallel && !segs.empty()) {
    std::atomic<bool> ok{true};
    exec::parallel_for(segs.size(), [&](std::size_t s) {
      if (!ok.load(std::memory_order_relaxed)) return;
      BitReader bits(
          entropy.subspan(segs[s].begin, segs[s].end - segs[s].begin));
      try {
        decode_segment(bits, static_cast<int>(s));
        // A non-final segment must land exactly on its restart boundary
        // (where the serial decoder's expect_restart_marker succeeds). The
        // final segment mirrors the serial decoder, which ignores trailing
        // bytes after the last MCU.
        if (s + 1 < segs.size() && !bits.at_segment_end())
          ok.store(false, std::memory_order_relaxed);
      } catch (const Error&) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
    decoded = ok.load();
    if (!decoded) {
      // A half-written attempt leaves residue in the sparse-write blocks;
      // restore the all-zero precondition decode_block relies on.
      for (int c = 0; c < img.component_count(); ++c)
        img.component(c).blocks.fill(CoefBlock{});
    }
  }
  if (decoded) {
    if (stats) stats->parallel = true;
  } else {
    // Serial decode: the segments in order on one reader, RSTn between them.
    BitReader bits(entropy);
    for (int s = 0; s < grid.count; ++s) {
      if (s > 0) bits.expect_restart_marker((s - 1) % 8);
      decode_segment(bits, s);
    }
  }

  // After the last MCU the next marker must be EOI (fill bytes aside): a
  // stream cut inside or before its EOI, or one with restart segments past
  // the DRI's count, is rejected rather than decoded from its tail.
  if (segs.empty()) segs = scan_restart_segments(entropy, grid.count);
  std::size_t eoi = segs.empty() ? entropy.size() : segs.back().end;
  while (eoi + 2 < entropy.size() && entropy[eoi + 1] == kMarkerPrefix) ++eoi;
  if (eoi + 1 >= entropy.size() || entropy[eoi + 1] != kEOI)
    throw ParseError("scan does not end at EOI");

  return img;
}

}  // namespace

std::size_t max_decode_pixels() {
  const std::size_t v = g_max_decode_pixels.load(std::memory_order_relaxed);
  if (v) return v;
  static const std::size_t resolved = [] {
    const char* env = std::getenv("PUPPIES_MAX_PIXELS");
    if (env && *env) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(env, &end, 10);
      if (end && *end == '\0' && n > 0) return static_cast<std::size_t>(n);
    }
    return kDefaultMaxDecodePixels;
  }();
  return resolved;
}

void set_max_decode_pixels(std::size_t pixels) {
  g_max_decode_pixels.store(pixels, std::memory_order_relaxed);
}

CoefficientImage parse(std::span<const std::uint8_t> data, ParseStats* stats) {
  // Clean taxonomy for hostile input: anything a malformed stream trips —
  // including deep precondition checks (Huffman spec sizes, image
  // dimensions) that report InvalidArgument — surfaces as ParseError.
  try {
    return parse_impl(data, stats);
  } catch (const ParseError&) {
    throw;
  } catch (const InvalidArgument& e) {
    throw ParseError(std::string("malformed stream: ") + e.what());
  }
}

RgbImage decompress(std::span<const std::uint8_t> data) {
  return decode_to_rgb(parse(data));
}

CoefficientImage requantize(const CoefficientImage& coeffs, int new_quality) {
  CoefficientImage out(coeffs.width(), coeffs.height(),
                       coeffs.component_count(), luma_quant_table(new_quality),
                       chroma_quant_table(new_quality), coeffs.chroma_mode());
  for (int c = 0; c < coeffs.component_count(); ++c) {
    const Component& src = coeffs.component(c);
    Component& dst = out.component(c);
    dst.quant_index = src.quant_index;
    const QuantTable& old_qt = coeffs.qtable(src.quant_index);
    const QuantTable& new_qt = out.qtable(dst.quant_index);
    exec::parallel_for(static_cast<std::size_t>(src.blocks_h), [&](std::size_t row) {
      const int by = static_cast<int>(row);
      for (int bx = 0; bx < src.blocks_w; ++bx) {
        const CoefBlock& in_b = src.block(bx, by);
        CoefBlock& out_b = dst.block(bx, by);
        for (int z = 0; z < 64; ++z) {
          const long raw = static_cast<long>(in_b[static_cast<std::size_t>(z)]) *
                           old_qt.q[static_cast<std::size_t>(z)];
          long q = raw >= 0
                       ? (raw + new_qt.q[static_cast<std::size_t>(z)] / 2) /
                             new_qt.q[static_cast<std::size_t>(z)]
                       : -((-raw + new_qt.q[static_cast<std::size_t>(z)] / 2) /
                           new_qt.q[static_cast<std::size_t>(z)]);
          const int lo = z == 0 ? kDcMin : kAcMin;
          const int hi = z == 0 ? kDcMax : kAcMax;
          if (q < lo) q = lo;
          if (q > hi) q = hi;
          out_b[static_cast<std::size_t>(z)] = static_cast<std::int16_t>(q);
        }
      }
    });
  }
  return out;
}

}  // namespace puppies::jpeg
