#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace puppies {

using Bytes = std::vector<std::uint8_t>;

/// Append-only big-endian byte serializer used for public parameters,
/// private-matrix export, and the simulated PSP blob store.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i16(std::int16_t v);
  void i32(std::int32_t v);
  /// Length-prefixed (u32) blob.
  void blob(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view text);
  void raw(std::span<const std::uint8_t> data);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

/// Bounds-checked reader matching ByteWriter. Throws ParseError on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int16_t i16();
  std::int32_t i32();
  Bytes blob();
  std::string str();
  /// Reads exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Reads a u32 element count and throws ParseError if that many elements
  /// of at least `min_element_bytes` each cannot fit in the bytes left, so
  /// an untrusted count is safe to reserve().
  std::uint32_t count(std::size_t min_element_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Lowercase hex encoding of a byte string.
std::string to_hex(std::span<const std::uint8_t> data);
/// Inverse of to_hex; throws ParseError on bad input.
Bytes from_hex(std::string_view hex);

}  // namespace puppies
