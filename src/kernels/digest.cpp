// Sha256 (common/digest.h) lives in puppies_kernels so that its block
// function is resolved with the SIMD tier (kernels.cpp). This file holds the
// streaming front end and the portable compression, which is the scalar
// tier's path and the reference the SHA-NI path is tested against.
#include "puppies/common/digest.h"

#include <cstring>

#include "kernels_internal.h"
#include "puppies/common/error.h"

namespace puppies {

alignas(16) const std::uint32_t kernels::detail::kSha256RoundK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

constexpr std::array<std::uint32_t, 8> kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t v, int n) {
  return (v >> n) | (v << (32 - n));
}

void compress(std::uint32_t* state, const std::uint8_t* block) {
  const std::uint32_t* k = kernels::detail::kSha256RoundK;
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + k[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void kernels::detail::sha256_blocks_portable(std::uint32_t* state,
                                             const std::uint8_t* data,
                                             std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) compress(state, data + 64 * i);
}

Sha256::Sha256() : Sha256(kernels::active_sha256_impl()) {}

Sha256::Sha256(kernels::Sha256Impl impl)
    : state_(kInitState),
      buffer_{},
      blocks_(kernels::detail::sha256_blocks_for(impl)) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  require(!finalized_, "Sha256: update after finalize");
  total_bytes_ += data.size();
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == 64) {
      blocks_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 64;
  blocks_(state_.data(), data.data() + pos, whole);
  pos += 64 * whole;
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

void Sha256::update(std::string_view text) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest Sha256::finalize() {
  require(!finalized_, "Sha256: already finalized");
  finalized_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  while ((buffered_ + pad_len) % 64 != 56) pad[pad_len++] = 0;
  for (int i = 7; i >= 0; --i)
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));

  // Absorb the padding directly (bypassing update()'s finalized_ check).
  finalized_ = false;
  update(std::span<const std::uint8_t>(pad, pad_len));
  finalized_ = true;

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

std::string Digest::to_hex() const { return puppies::to_hex(bytes); }

Digest Digest::from_hex(std::string_view hex) {
  if (hex.size() != 64) throw ParseError("digest hex must be 64 chars");
  const Bytes raw = puppies::from_hex(hex);
  Digest d;
  std::memcpy(d.bytes.data(), raw.data(), 32);
  return d;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256(std::string_view text) {
  Sha256 h;
  h.update(text);
  return h.finalize();
}

}  // namespace puppies
