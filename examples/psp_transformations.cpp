// Scenario 2 end to end (Figs. 8-10, 16): the PSP transforms the perturbed
// image — losslessly (rotation) and in the pixel domain (scaling) — and the
// receiver still recovers the transformed original.
#include <cstdio>
#include <cmath>
#include <filesystem>

#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/image/ppm.h"
#include "puppies/jpeg/codec.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"

using namespace puppies;

int main() {
  std::filesystem::create_directories("puppies_out");

  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 21, 496, 328);
  const jpeg::CoefficientImage original =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 80);
  const SecretKey key = SecretKey::from_label("psp-example");
  const Rect roi = scene.text_regions.empty() ? Rect{160, 120, 160, 80}
                                              : scene.text_regions[0];
  const core::ProtectResult shared = core::protect(
      original, {core::RoiPolicy{roi, key, core::Scheme::kCompression,
                                 core::PrivacyLevel::kMedium}});
  core::KeyRing keys;
  keys.add(key);

  psp::PspService cloud;
  psp::SecureChannel channel;
  channel.send_matrices("bob", key);
  write_ppm("puppies_out/psp_original.ppm", jpeg::decode_to_rgb(original));

  // --- Case 1: the PSP rotates the image 180 degrees (Fig. 10). ----------
  {
    const std::string id = cloud.upload(jpeg::serialize(shared.perturbed),
                                        shared.params.serialize());
    cloud.apply_transform(id, {transform::rotate(180)},
                          psp::DeliveryMode::kCoefficients);
    const psp::Download d = cloud.download(id);
    const jpeg::CoefficientImage recovered = core::recover_lossless(
        jpeg::parse(d.jfif), core::PublicParameters::parse(d.public_params),
        d.chain, channel.ring_for("bob"));
    const jpeg::CoefficientImage reference =
        transform::apply_lossless({transform::rotate(180)}, original);
    std::printf("rotation 180: recovery %s (coefficient-exact)\n",
                recovered == reference ? "EXACT" : "NOT exact");
    write_ppm("puppies_out/psp_rotated_stored.ppm",
              jpeg::decode_to_rgb(
                  transform::apply_lossless({transform::rotate(180)},
                                            shared.perturbed)));
    write_ppm("puppies_out/psp_rotated_recovered.ppm",
              jpeg::decode_to_rgb(recovered));
  }

  // --- Case 2: a PSP that scales to 50% in float (Fig. 16). -------------
  // The figure assumes a PSP that processes losslessly. The service only
  // serves clamped re-encodes, which destroy the ROI, so this case plays
  // that PSP on the downloaded JPEG.
  {
    const std::string id = cloud.upload(jpeg::serialize(shared.perturbed),
                                        shared.params.serialize());
    const transform::Chain chain{
        transform::scale(original.width() / 2, original.height() / 2)};
    const psp::Download d = cloud.download(id);
    const YccImage scaled =
        transform::apply(chain, jpeg::inverse_transform(jpeg::parse(d.jfif)));
    const YccImage recovered = core::recover_pixels(
        scaled, core::PublicParameters::parse(d.public_params), chain,
        channel.ring_for("bob"));
    const YccImage reference =
        transform::apply(chain, jpeg::inverse_transform(original));
    const double db =
        psnr(to_gray(ycc_to_rgb(recovered)), to_gray(ycc_to_rgb(reference)));
    std::printf("scaling 50%%: recovery PSNR vs scaled original = %s dB\n",
                std::isinf(db) ? "inf" : std::to_string(db).c_str());
    write_ppm("puppies_out/psp_scaled_stored.ppm", ycc_to_rgb(scaled));
    write_ppm("puppies_out/psp_scaled_recovered.ppm", ycc_to_rgb(recovered));
  }

  // --- Case 3: a viewer WITHOUT the key sees noise in the ROI either way.
  {
    const std::string id = cloud.upload(jpeg::serialize(shared.perturbed),
                                        shared.params.serialize());
    cloud.apply_transform(id, {transform::rotate(90)},
                          psp::DeliveryMode::kCoefficients);
    const psp::Download d = cloud.download(id);
    const jpeg::CoefficientImage public_view = core::recover_lossless(
        jpeg::parse(d.jfif), core::PublicParameters::parse(d.public_params),
        d.chain, core::KeyRing{});
    write_ppm("puppies_out/psp_public_view.ppm",
              jpeg::decode_to_rgb(public_view));
    std::printf("public view written (ROI remains perturbed after rotate 90)\n");
  }

  std::printf("images in puppies_out/psp_*.ppm\n");
  return 0;
}
