#pragma once

#include <string>
#include <vector>

#include "puppies/core/pipeline.h"
#include "puppies/psp/psp.h"
#include "puppies/roi/preferences.h"

namespace puppies::psp {

/// High-level facade over the whole Fig. 5 system: one object per device.
///
/// OwnerDevice = the sender side (ROI recommendation with learned
/// preferences, key generation, perturbation, upload, key distribution).
/// ReceiverDevice = the receiver side (download, transformation-aware
/// recovery with whatever keys arrived). Both talk to a shared PspService
/// and SecureChannel. This is the API a downstream app would embed.
/// Options for OwnerDevice::share.
struct ShareOptions {
  core::Scheme scheme = core::Scheme::kCompression;
  core::PrivacyLevel level = core::PrivacyLevel::kMedium;
  int quality = 75;
  jpeg::ChromaMode chroma = jpeg::ChromaMode::k444;
  /// Preference threshold for auto-recommended ROIs.
  double preference_threshold = 0.5;
};

class OwnerDevice {
 public:
  struct ShareOutcome {
    std::string image_id;          ///< PSP handle
    std::vector<Rect> rois;        ///< what was protected
    SecretKey key;                 ///< the ROI key (kept on the device)
  };

  OwnerDevice(std::string name, PspService& psp, SecureChannel& channel,
              std::uint64_t entropy_seed);

  /// Detects ROIs (filtered by this owner's learned preferences), perturbs
  /// them under a fresh key, uploads, and ships the key material to every
  /// receiver in `audience`. If detection finds nothing, `fallback_roi` is
  /// used (pass an empty rect to share unprotected).
  ShareOutcome share(const RgbImage& photo,
                     const std::vector<std::string>& audience,
                     const ShareOptions& options = {},
                     const Rect& fallback_roi = Rect{});

  /// Records the owner's accept/reject feedback to refine recommendations.
  roi::PreferenceModel& preferences() { return preferences_; }

 private:
  std::string name_;
  PspService& psp_;
  SecureChannel& channel_;
  Rng entropy_;
  roi::PreferenceModel preferences_;
};

/// The receiver side: downloads an image and recovers everything its key
/// ring can. Lossless chains recover in the coefficient domain; a pixel
/// chain arrives clamped and re-encoded, which destroys what recovery
/// needs, so that view is the served image with its ROIs still perturbed.
class ReceiverDevice {
 public:
  ReceiverDevice(std::string name, PspService& psp, SecureChannel& channel)
      : name_(std::move(name)), psp_(psp), channel_(channel) {}

  /// Downloads `image_id` and returns the best view this receiver can see.
  RgbImage view(const std::string& image_id) const;

  /// Private bytes this receiver has been shipped so far.
  std::size_t private_bytes() const { return channel_.private_bytes(name_); }

 private:
  std::string name_;
  PspService& psp_;
  SecureChannel& channel_;
};

}  // namespace puppies::psp
