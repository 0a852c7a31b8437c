#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "puppies/jpeg/bitio.h"

namespace puppies::jpeg {

/// A Huffman table in JPEG DHT form: bits[l] = number of codes of length l
/// (l in 1..16), `values` = symbols in code order.
struct HuffmanSpec {
  std::array<std::uint8_t, 17> bits{};  // index 0 unused
  std::vector<std::uint8_t> values;

  int total_codes() const {
    int n = 0;
    for (int l = 1; l <= 16; ++l) n += bits[static_cast<std::size_t>(l)];
    return n;
  }
};

/// ITU-T T.81 Annex K typical tables.
const HuffmanSpec& std_dc_luma();
const HuffmanSpec& std_dc_chroma();
const HuffmanSpec& std_ac_luma();
const HuffmanSpec& std_ac_chroma();

/// Builds a frequency-optimal spec from a 256-entry symbol histogram using
/// the libjpeg algorithm (max code length 16, all-ones code reserved).
/// Symbols with zero frequency get no code.
HuffmanSpec build_optimal_spec(const std::array<long, 256>& freq);

/// Symbol histogram of a scan: freq[class][id][symbol], class 0 = DC /
/// 1 = AC, table id 0 = luma / 1 = chroma. Restart segments gather into
/// private instances on the exec pool and are merge()d in segment order, so
/// an optimized-table build sees exactly the counts a serial pass over the
/// whole scan would have produced.
struct SymbolHistogram {
  std::array<long, 256> freq[2][2] = {};

  /// Element-wise accumulate (folds per-segment histograms).
  void merge(const SymbolHistogram& other);
};

/// Encoder-side derived table: one 256-entry LUT of packed
/// (code << 6) | length words, so the hot loop reads a single word per
/// symbol and can fuse the code with the magnitude bits in one
/// BitWriter::put.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const HuffmanSpec& spec);

  /// True iff `symbol` has a code.
  bool can_encode(std::uint8_t symbol) const { return packed_[symbol] != 0; }

  /// Packed encode-LUT entry for `symbol`: (code << 6) | length; 0 when the
  /// symbol has no code in this table.
  std::uint32_t packed(std::uint8_t symbol) const { return packed_[symbol]; }

  /// Code length in bits for `symbol` (0 = no code). Used to price a symbol
  /// stream under a table without encoding it (EncodeStats).
  int code_length(std::uint8_t symbol) const {
    return static_cast<int>(packed_[symbol] & 63u);
  }

  /// Writes the code for `symbol`; throws InvalidArgument if it has none.
  void emit(BitWriter& out, std::uint8_t symbol) const;

  /// Fused emission: the code for `symbol` immediately followed by the
  /// `category`-bit magnitude value, in a single put().
  void emit_with_magnitude(BitWriter& out, std::uint8_t symbol,
                           std::uint32_t mag_bits, int category) const {
    const std::uint32_t p = packed_[symbol];
    assert(p != 0);
    out.put((static_cast<std::uint64_t>(p >> 6) << category) | mag_bits,
            static_cast<int>(p & 63u) + category);
  }

 private:
  std::array<std::uint32_t, 256> packed_{};
};

inline int extend_magnitude(std::uint32_t bits, int category);

/// Decoder-side derived table. The fast path resolves codes of up to 8 bits
/// with a single 256-entry lookup on the next 8 bits; longer codes (and the
/// tail of the segment, where 8 bits cannot be peeked) fall back to the
/// MAXCODE/MINCODE/VALPTR method from T.81 F.2.
class HuffmanDecoder {
 public:
  /// Window width of decode_fused: the 8-bit first-level LUT plus the widest
  /// magnitude field it can resolve (11 bits, the DC maximum).
  static constexpr int kFusedPeekBits = 8 + 11;

  explicit HuffmanDecoder(const HuffmanSpec& spec);

  /// Reads one symbol from the bit stream. Throws ParseError on invalid code.
  std::uint8_t decode(BitReader& in) const;

  /// Fused fast path of the decode hot loop (DESIGN.md §13): one wide peek
  /// resolves the Huffman code via the first-level LUT AND receive-extends
  /// the value's magnitude bits, consuming both at once. `kDc` selects the
  /// class's magnitude rule (DC: category = symbol, max 11; AC: category =
  /// low nibble, max 10). A symbol whose category is invalid for its class
  /// consumes only the code bits and reports value 0 — the caller's range
  /// check then throws exactly as the slow path would. Returns false when
  /// the LUT cannot serve (code longer than 8 bits) or fewer than
  /// kFusedPeekBits bits remain buffered (segment tail / marker-adjacent
  /// refill); the caller takes the verbatim decode() + get() slow path.
  template <bool kDc>
  bool decode_fused(BitReader& in, std::uint8_t& sym, int& value) const {
    std::uint64_t w = 0;
    if (!in.peek_wide(kFusedPeekBits, w)) return false;
    const auto idx = static_cast<std::size_t>(w >> (kFusedPeekBits - 8));
    const int len = lut_len_[idx];
    if (len == 0) return false;
    const std::uint8_t s = lut_sym_[idx];
    int cat = kDc ? s : (s & 0xf);
    if (cat > (kDc ? 11 : 10)) cat = 0;
    sym = s;
    if (cat == 0) {
      in.skip(len);
      value = 0;
      return true;
    }
    const auto mag = static_cast<std::uint32_t>(
        (w >> (kFusedPeekBits - len - cat)) & ((1u << cat) - 1));
    in.skip(len + cat);
    value = extend_magnitude(mag, cat);
    return true;
  }

 private:
  std::array<std::int32_t, 17> mincode_{};
  std::array<std::int32_t, 17> maxcode_{};  // -1 = no codes of this length
  std::array<std::int32_t, 17> valptr_{};
  std::vector<std::uint8_t> values_;
  // First-level LUT indexed by the next 8 bits: code length (0 = no code of
  // length <= 8 has this prefix) and decoded symbol.
  std::array<std::uint8_t, 256> lut_len_{};
  std::array<std::uint8_t, 256> lut_sym_{};
};

/// JPEG magnitude category of v (number of bits needed): 0 for 0, etc.
inline int magnitude_category(int v) {
  return std::bit_width(static_cast<std::uint32_t>(v < 0 ? -v : v));
}

/// The `category`-bit raw representation JPEG appends after the Huffman
/// symbol (negative values use one's-complement form).
inline std::uint32_t magnitude_bits(int v, int category) {
  if (category == 0) return 0;
  if (v < 0) v += (1 << category) - 1;  // one's-complement form
  return static_cast<std::uint32_t>(v) & ((1u << category) - 1);
}

/// Inverse: expands `bits` (of width `category`) back to a signed value.
inline int extend_magnitude(std::uint32_t bits, int category) {
  if (category == 0) return 0;
  const std::uint32_t half = 1u << (category - 1);
  if (bits < half) return static_cast<int>(bits) - (1 << category) + 1;
  return static_cast<int>(bits);
}

}  // namespace puppies::jpeg
