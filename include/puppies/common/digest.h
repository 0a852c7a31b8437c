#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "puppies/common/bytes.h"
#include "puppies/kernels/kernels.h"

namespace puppies {

/// A 256-bit content digest — the address of a blob in `puppies::store`.
/// Comparable and hashable so it can key store indexes and cache maps.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// 64-char lowercase hex (the on-disk blob file name).
  std::string to_hex() const;
  /// Inverse of to_hex; throws ParseError on bad length or digits.
  static Digest from_hex(std::string_view hex);

  bool operator==(const Digest&) const = default;
  auto operator<=>(const Digest&) const = default;
};

/// Hash functor for unordered containers: a SHA-256 output is already
/// uniformly distributed, so the first word is the hash.
struct DigestHash {
  std::size_t operator()(const Digest& d) const {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(h); ++i)
      h = (h << 8) | d.bytes[i];
    return h;
  }
};

/// Streaming SHA-256 (FIPS 180-4). Deterministic, allocation-free; used for
/// content addressing, not for any secrecy property (keys stay on the
/// splitmix64 PRF, see common/key.h). Implemented in puppies_kernels: the
/// block function follows the SIMD tier (kernels::active_sha256_impl), and
/// every path yields the same digest.
class Sha256 {
 public:
  /// Hashes on the active path.
  Sha256();
  /// Hashes on an explicit path (tests and benches); throws
  /// InvalidArgument if it cannot run here (kernels::sha256_impl_supported).
  explicit Sha256(kernels::Sha256Impl impl);

  /// Absorbs `data`; may be called any number of times.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);

  /// Pads, finishes, and returns the digest. The hasher is left finalized;
  /// further update() calls throw InvalidArgument.
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  /// The path's block function (kernels_internal.h: Sha256Blocks).
  void (*blocks_)(std::uint32_t* state, const std::uint8_t* data,
                  std::size_t blocks);
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
  bool finalized_ = false;
};

/// One-shot conveniences.
Digest sha256(std::span<const std::uint8_t> data);
Digest sha256(std::string_view text);

}  // namespace puppies
