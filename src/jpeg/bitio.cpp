#include "puppies/jpeg/bitio.h"

#include "puppies/common/error.h"

namespace puppies::jpeg {

void BitWriter::emit_byte(std::uint8_t b) {
  out_.push_back(b);
  if (b == 0xff) out_.push_back(0x00);  // byte stuffing
}

void BitWriter::drain_word(std::uint64_t w) {
  // Fast path: no byte is 0xFF, so no stuffing — append the word in one go.
  // Zero-byte detection (bit-twiddling haszero) on ~w: a zero byte there is
  // a 0xFF byte in w. Exact for "is any byte zero", which is all the branch
  // needs.
  const std::uint64_t inv = ~w;
  if (((inv - 0x0101010101010101ull) & ~inv & 0x8080808080808080ull) == 0) {
    const std::size_t n = out_.size();
    out_.resize(n + 8);
    for (std::size_t i = 0; i < 8; ++i)
      out_[n + i] = static_cast<std::uint8_t>(w >> (56 - 8 * i));
    return;
  }
  for (int i = 56; i >= 0; i -= 8) emit_byte(static_cast<std::uint8_t>(w >> i));
}

void BitWriter::flush() {
  const int pad = -nbits_ & 7;
  put((1u << pad) - 1, pad);  // pad with 1s (may drain a full word)
  for (int i = nbits_ - 8; i >= 0; i -= 8)
    emit_byte(static_cast<std::uint8_t>(acc_ >> i));
  acc_ = 0;
  nbits_ = 0;
}

void BitWriter::restart_marker(int n) {
  require(n >= 0 && n <= 7, "restart marker index");
  flush();
  // Markers are written raw (never stuffed).
  out_.push_back(0xff);
  out_.push_back(static_cast<std::uint8_t>(0xd0 + n));
}

void BitReader::refill() {
  // Top up to > 56 bits so any get/peek of up to 24 bits is served from the
  // accumulator. Stops (without consuming) at end-of-data, a dangling 0xFF,
  // or a marker; the condition is recorded and only thrown if bits past it
  // are actually requested.
  //
  // Fast path: 4 upcoming bytes with no 0xFF anywhere (no stuffing, no
  // marker, no dangling tail — the common case mid-scan) append in one
  // shift. The 0xFF screen uses the haszero bit-trick on the inverted word.
  while (avail_ <= 32 && stop_ == Stop::kNone && pos_ + 4 <= data_.size()) {
    const std::uint32_t w = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    const std::uint32_t inv = ~w;  // a 0xFF byte in w is a zero byte here
    if (((inv - 0x01010101u) & ~inv & 0x80808080u) != 0) break;
    acc_ = (acc_ << 32) | w;
    avail_ += 32;
    pos_ += 4;
  }
  while (avail_ <= 56 && stop_ == Stop::kNone) {
    if (pos_ >= data_.size()) {
      stop_ = Stop::kEnd;
      break;
    }
    const std::uint8_t b = data_[pos_];
    if (b == 0xff) {
      if (pos_ + 1 >= data_.size()) {
        stop_ = Stop::kDangling;
        break;
      }
      if (data_[pos_ + 1] != 0x00) {
        stop_ = Stop::kMarker;
        break;
      }
      pos_ += 2;  // stuffed byte
    } else {
      ++pos_;
    }
    acc_ = (acc_ << 8) | b;
    avail_ += 8;
  }
}

void BitReader::throw_stopped() const {
  switch (stop_) {
    case Stop::kDangling:
      throw ParseError("dangling 0xFF in scan");
    case Stop::kMarker:
      throw ParseError("unexpected marker inside entropy-coded segment");
    default:
      throw ParseError("entropy segment underrun");
  }
}

std::uint32_t BitReader::get(int count) {
  require(count >= 0 && count <= 24, "BitReader::get count");
  if (count == 0) return 0;
  if (avail_ < count) {
    refill();
    if (avail_ < count) throw_stopped();
  }
  avail_ -= count;
  return static_cast<std::uint32_t>(acc_ >> avail_) & ((1u << count) - 1);
}

bool BitReader::peek(int count, std::uint32_t& bits) {
  if (avail_ < count) {
    refill();
    if (avail_ < count) return false;
  }
  bits = static_cast<std::uint32_t>(acc_ >> (avail_ - count)) &
         ((1u << count) - 1);
  return true;
}

bool BitReader::at_segment_end() {
  // Discard the bit remainder of the current byte, exactly like
  // expect_restart_marker; the marker is accepted iff no whole byte is
  // buffered and every byte of the segment has been consumed.
  avail_ -= avail_ % 8;
  return avail_ == 0 && pos_ >= data_.size();
}

void BitReader::expect_restart_marker(int expected_n) {
  // Discard the bit remainder of the current byte.
  avail_ -= avail_ % 8;
  if (avail_ >= 8) {
    // Whole entropy bytes are still buffered, so the marker cannot be next.
    // Report what a byte-at-a-time reader would have seen at this position:
    // a buffered 0xFF means the raw stream had a stuffed FF 00 pair here.
    const std::uint8_t next =
        static_cast<std::uint8_t>(acc_ >> (avail_ - 8));
    if (next != 0xff) throw ParseError("expected restart marker");
    throw ParseError("restart marker out of sequence");
  }
  if (pos_ + 2 > data_.size()) throw ParseError("missing restart marker");
  if (data_[pos_] != 0xff) throw ParseError("expected restart marker");
  const std::uint8_t marker = data_[pos_ + 1];
  if (marker != static_cast<std::uint8_t>(0xd0 + expected_n))
    throw ParseError("restart marker out of sequence");
  pos_ += 2;
  acc_ = 0;
  avail_ = 0;
  stop_ = Stop::kNone;
}

}  // namespace puppies::jpeg
