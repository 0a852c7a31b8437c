#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "puppies/common/bytes.h"

namespace puppies::jpeg {

/// MSB-first bit writer for JPEG entropy-coded segments. Emits a 0x00 stuff
/// byte after every 0xFF, as the standard requires.
///
/// The accumulator is 64 bits wide so a Huffman code and its magnitude bits
/// can be emitted in a single put() (up to 16 + 11 = 27 bits), and it drains
/// in whole words: up to 63 bits stay buffered between calls, and the put
/// that fills the word appends its 8 bytes at once — one resize and 8 stores
/// when no byte is 0xFF, the per-byte stuffing path when one is.
class BitWriter {
 public:
  /// Largest `count` a single put() accepts.
  static constexpr int kMaxPutBits = 57;

  explicit BitWriter(Bytes& out) : out_(out) {}

  /// Writes the low `count` bits of `bits` (count in [0, kMaxPutBits]).
  /// The count contract is a debug assertion: callers in the codec emit at
  /// most a 16-bit code fused with an 11-bit magnitude.
  void put(std::uint64_t bits, int count) {
    assert(count >= 0 && count <= kMaxPutBits);
    assert(nbits_ >= 0 && nbits_ <= 63);
    bits &= (std::uint64_t{1} << count) - 1;
    const int room = 64 - nbits_;
    if (count < room) {
      acc_ = (acc_ << count) | bits;
      nbits_ += count;
      return;
    }
    // The word fills: its top `room` bits come from this put (room >= 7,
    // so the shift stays below 64), the rest start the next word.
    const int rest = count - room;
    drain_word((acc_ << room) | (bits >> rest));
    acc_ = bits & ((std::uint64_t{1} << rest) - 1);
    nbits_ = rest;
  }

  /// Pads the final partial byte with 1-bits and flushes every buffered
  /// byte.
  void flush();

  /// Flushes, then emits restart marker RSTn (n in 0..7) unstuffed. flush()
  /// leaves the writer empty, so a restart segment's bytes are
  /// self-contained and segments encoded by independent writers concatenate
  /// — with RSTn markers between them — into exactly the stream one serial
  /// writer would have produced.
  void restart_marker(int n);

 private:
  void drain_word(std::uint64_t w);
  void emit_byte(std::uint8_t b);
  Bytes& out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;  ///< buffered bit count; < 64 between put() calls
};

/// MSB-first bit reader that un-stuffs 0xFF00 and stops at any other marker.
///
/// Internally buffers up to 64 bits: refill() consumes whole bytes until the
/// accumulator is full or it reaches the end of the data, a dangling 0xFF, or
/// a marker. Those three conditions are recorded, not thrown — the matching
/// ParseError fires only if the caller actually requests bits past them, so
/// the error behavior is identical to a byte-at-a-time reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reads `count` bits (count in [0,24]). Throws ParseError past the end of
  /// the entropy-coded segment.
  std::uint32_t get(int count);
  /// Reads a single bit.
  int bit() { return static_cast<int>(get(1)); }

  /// Non-consuming read of `count` bits (count in [1,24]) into `bits`.
  /// Returns false if fewer than `count` bits remain before the end of the
  /// segment (never throws). On success a following skip(count) consumes.
  bool peek(int count, std::uint32_t& bits);

  /// Wide variant of peek (count in [1,56]) for the fused Huffman+magnitude
  /// decode: one peek covers an 8-bit first-level code plus up to 11
  /// magnitude bits. Same refill/stop semantics as peek. Inline because it
  /// runs once per decoded coefficient — the refill stays out of line, so
  /// the hot path is a compare and two shifts on registers.
  bool peek_wide(int count, std::uint64_t& bits) {
    if (avail_ < count) {
      refill();
      if (avail_ < count) return false;
    }
    bits = (acc_ >> (avail_ - count)) & (~std::uint64_t{0} >> (64 - count));
    return true;
  }

  /// Consumes `count` bits previously seen via peek (count <= peeked count).
  void skip(int count) { avail_ -= count; }

  /// Consumes a restart marker RSTn (discarding any partial byte first).
  /// Throws ParseError if the next marker is not RST(expected_n).
  void expect_restart_marker(int expected_n);

  /// True iff the reader sits where expect_restart_marker would accept a
  /// marker: the partial-byte remainder is discarded and no whole entropy
  /// byte is left buffered or unread. The parallel segment decoder checks
  /// this at the end of every non-final segment — the RSTn itself lies
  /// outside the segment's byte range — so a segment that over- or
  /// under-consumes falls back to the serial decoder and its exact error.
  bool at_segment_end();

 private:
  enum class Stop : std::uint8_t { kNone, kEnd, kDangling, kMarker };

  void refill();
  [[noreturn]] void throw_stopped() const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;  // low avail_ bits are unconsumed, MSB-first
  int avail_ = 0;
  Stop stop_ = Stop::kNone;
};

}  // namespace puppies::jpeg
