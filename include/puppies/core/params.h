#pragma once

#include <optional>
#include <string>
#include <vector>

#include "puppies/core/perturb.h"
#include "puppies/transform/transform.h"

namespace puppies::core {

/// Public description of one protected ROI. Everything here is stored in the
/// clear next to the perturbed image at the PSP ("these public data can be
/// accessed by anyone", Section III-C): position, scheme, privacy
/// parameters, the one-way id of the private matrix pair, and the ZInd /
/// WInd position sets. None of it reveals key material.
struct ProtectedRoi {
  std::uint32_t id = 0;
  Rect rect{};  ///< 8-aligned pixel rect in the original image
  Scheme scheme = Scheme::kCompression;
  PerturbParams params{};
  std::string matrix_id;  ///< SecretKey::id() of the ROI key
  int matrix_count = 1;   ///< Section IV-D: pairs cycled across block runs
  PositionSet zind;
  PositionSet wind;

  void serialize(ByteWriter& out) const;
  static ProtectedRoi parse(ByteReader& in);
  bool operator==(const ProtectedRoi&) const = default;
};

/// The full public-parameter record for one shared image.
struct PublicParameters {
  int width = 0;
  int height = 0;
  int components = 3;
  jpeg::ChromaMode chroma = jpeg::ChromaMode::k444;
  jpeg::QuantTable luma_qtable;
  jpeg::QuantTable chroma_qtable;
  std::vector<ProtectedRoi> rois;

  Bytes serialize() const;
  static PublicParameters parse(std::span<const std::uint8_t> data);

  /// Wire size in bytes (Fig. 18's "public part" includes this).
  std::size_t byte_size() const { return serialize().size(); }

  /// Wire size excluding the ZInd sets (the paper's
  /// "PuPPIeS-Zero--no newZeroIndex" series in Fig. 18).
  std::size_t byte_size_without_zind() const;

  const ProtectedRoi* find_roi(std::uint32_t id) const;

  /// True iff `r` can be an ROI of this image: MCU-aligned (16 px for a
  /// 4:2:0 image, else 8), non-empty and inside the block grid padded to
  /// whole MCUs. parse rejects every other rect.
  bool roi_fits(const Rect& r) const;

  bool operator==(const PublicParameters&) const = default;
};

/// Receiver-side key store: maps public matrix ids to private matrix
/// material. An entry either holds the full SecretKey (from which any number
/// of pairs can be derived on demand) or a raw MatrixSet of a fixed size
/// (matrix-only distribution over the secure channel).
class KeyRing {
 public:
  /// Registers a full secret key. Returns the public id.
  std::string add(const SecretKey& key);
  /// Registers raw matrix material under an id.
  void add(const std::string& id, const MatrixSet& set);
  void add(const std::string& id, const MatrixPair& pair);

  /// Material for an ROI that needs `count` pairs; nullopt if this ring
  /// cannot satisfy it (unknown id, or a raw set of the wrong size).
  std::optional<MatrixSet> find_set(const std::string& id, int count) const;

  /// Legacy single-pair view (the first pair of the entry), nullptr if
  /// unknown.
  const MatrixPair* find(const std::string& id) const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string id;
    std::optional<SecretKey> key;  ///< present when the full key was shared
    MatrixSet set;                 ///< always holds at least one pair
  };
  Entry* lookup(const std::string& id);
  const Entry* lookup(const std::string& id) const;
  std::vector<Entry> entries_;
};

}  // namespace puppies::core
