#include "puppies/common/bytes.h"

#include "puppies/common/error.h"

namespace puppies {

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v & 0xffff));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v & 0xffffffff));
}

void ByteWriter::i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::str(std::string_view text) {
  u32(static_cast<std::uint32_t>(text.size()));
  out_.insert(out_.end(), text.begin(), text.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) throw ParseError("byte stream underrun");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  const auto hi = u8();
  return static_cast<std::uint16_t>((hi << 8) | u8());
}

std::uint32_t ByteReader::u32() {
  const auto hi = u16();
  return (static_cast<std::uint32_t>(hi) << 16) | u16();
}

std::uint64_t ByteReader::u64() {
  const auto hi = u32();
  return (static_cast<std::uint64_t>(hi) << 32) | u32();
}

std::int16_t ByteReader::i16() { return static_cast<std::int16_t>(u16()); }
std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }

Bytes ByteReader::blob() { return raw(u32()); }

std::string ByteReader::str() {
  const std::size_t n = u32();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

std::uint32_t ByteReader::count(std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (n > remaining() / min_element_bytes)
    throw ParseError("element count exceeds the remaining bytes");
  return n;
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw ParseError("invalid hex digit");
}
}  // namespace

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw ParseError("odd-length hex string");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) |
                                            hex_nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace puppies
