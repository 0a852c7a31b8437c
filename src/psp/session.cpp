#include "puppies/psp/session.h"

#include <algorithm>

#include "puppies/jpeg/codec.h"
#include "puppies/roi/detect.h"

namespace puppies::psp {

OwnerDevice::OwnerDevice(std::string name, PspService& psp,
                         SecureChannel& channel, std::uint64_t entropy_seed)
    : name_(std::move(name)), psp_(psp), channel_(channel),
      entropy_(entropy_seed) {}

OwnerDevice::ShareOutcome OwnerDevice::share(
    const RgbImage& photo, const std::vector<std::string>& audience,
    const ShareOptions& options, const Rect& fallback_roi) {
  // 1. Recommend ROIs, filtered by this owner's learned preferences.
  const roi::Detections detections = roi::detect(photo);
  std::vector<Rect> rois = preferences_.personalize(
      detections, photo.width(), photo.height(), options.preference_threshold);
  if (rois.empty() && !fallback_roi.empty()) rois.push_back(fallback_roi);

  // 2. Perturb under a fresh key. (Multi-ROI images could use one key per
  //    ROI; the facade keeps one key per share for simplicity — receivers
  //    either see all of this share's regions or none.)
  const SecretKey key = SecretKey::generate(entropy_);
  std::vector<core::RoiPolicy> policies;
  for (const Rect& r : rois)
    policies.push_back(core::RoiPolicy{r, key, options.scheme, options.level});

  const jpeg::CoefficientImage original = jpeg::forward_transform(
      rgb_to_ycc(photo), options.quality, options.chroma);
  const core::ProtectResult result = core::protect(original, policies);

  // 3. Upload + distribute.
  ShareOutcome outcome;
  outcome.image_id = psp_.upload(jpeg::serialize(result.perturbed),
                                 result.params.serialize());
  outcome.rois = rois;
  outcome.key = key;
  if (!rois.empty())
    for (const std::string& receiver : audience)
      channel_.send_matrices(receiver, key);
  return outcome;
}

RgbImage ReceiverDevice::view(const std::string& image_id) const {
  const Download d = psp_.download(image_id);
  const core::PublicParameters params =
      core::PublicParameters::parse(d.public_params);
  const core::KeyRing ring = channel_.ring_for(name_);

  const jpeg::CoefficientImage img = jpeg::parse(d.jfif);
  if (d.chain.empty())
    return jpeg::decode_to_rgb(core::recover(img, params, ring));

  const bool all_lossless =
      std::all_of(d.chain.begin(), d.chain.end(),
                  [](const transform::Step& s) { return s.lossless(); });
  if (all_lossless && !img.subsampled())
    return jpeg::decode_to_rgb(
        core::recover_lossless(img, params, d.chain, ring));

  // Re-encoded pixel delivery: clamp losses already happened at the PSP;
  // best effort is the stored image itself (ROIs stay perturbed).
  return jpeg::decode_to_rgb(img);
}

}  // namespace puppies::psp
