// Fig. 4 / Fig. 10 / Fig. 16: recovery fidelity after PSP-side
// transformations. PuPPIeS recovers the transformed original (bit-exactly
// for lossless transforms, near-exactly through the shadow path), while P3's
// standard-library recombination loses fine detail.
#include "bench_common.h"
#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/p3/p3.h"

using namespace puppies;

namespace {

struct Row {
  const char* name;
  double puppies_psnr;
  double puppies_ssim;
  double p3_psnr;
  double p3_ssim;
};

double finite_db(double psnr_db) { return std::isinf(psnr_db) ? 99.0 : psnr_db; }

}  // namespace

int main() {
  bench::header(
      "Fig. 4/10/16: recovery fidelity after PSP transformations "
      "(PuPPIeS vs P3)",
      "Fig. 4, Fig. 10, Fig. 16, Section V-D");

  const int n = std::min(synth::bench_sample_count(synth::Dataset::kInria, 4), 8);
  std::vector<Row> totals;

  // Steps that depend on image size ("scale 50%", "crop center") are built
  // per image below from the case name.
  struct Case {
    const char* name;
    transform::Step step;
  };
  const Case cases[] = {
      {"scale 50%", transform::identity()},
      {"rotate 180", transform::rotate(180)},
      {"rotate 90", transform::rotate(90)},
      {"crop center", transform::identity()},
      {"box blur", transform::box_blur()},
      {"recompress q60", transform::recompress(60)},
  };

  std::printf("%-16s %12s %12s %12s %12s   (psnr dB, ssim; 99 = exact)\n",
              "transform", "PuPPIeS-psnr", "PuPPIeS-ssim", "P3-psnr",
              "P3-ssim");

  for (const Case& c : cases) {
    std::vector<double> pu_psnr, pu_ssim, p3_psnr, p3_ssim;
    for (int i = 0; i < n; ++i) {
      const synth::SceneImage scene = synth::generate(
          synth::Dataset::kInria, i, 512, 384);
      const jpeg::CoefficientImage original =
          jpeg::forward_transform(rgb_to_ycc(scene.image), 80);

      transform::Step step = c.step;
      if (std::string(c.name) == "scale 50%")
        step = transform::scale(original.width() / 2, original.height() / 2);
      if (std::string(c.name) == "crop center")
        step = transform::crop_aligned(Rect{original.width() / 4 / 8 * 8,
                                            original.height() / 4 / 8 * 8,
                                            original.width() / 2 / 8 * 8,
                                            original.height() / 2 / 8 * 8});

      // --- PuPPIeS: protect a central ROI, PSP transforms, recover.
      const SecretKey key =
          SecretKey::from_label("fig4/" + std::to_string(i));
      const Rect roi{original.width() / 4 / 8 * 8,
                     original.height() / 4 / 8 * 8,
                     original.width() / 2 / 8 * 8,
                     original.height() / 2 / 8 * 8};
      // Z only supports the lossless paths; use C everywhere for a uniform
      // comparison.
      const core::ProtectResult shared = core::protect(
          original, {core::RoiPolicy{roi, key, core::Scheme::kCompression,
                                     core::PrivacyLevel::kMedium}});
      core::KeyRing keys;
      keys.add(key);

      GrayU8 recovered, reference;
      if (step.lossless()) {
        const jpeg::CoefficientImage transformed =
            transform::apply_lossless({step}, shared.perturbed);
        recovered = to_gray(jpeg::decode_to_rgb(core::recover_lossless(
            transformed, shared.params, {step}, keys)));
        reference = to_gray(
            jpeg::decode_to_rgb(transform::apply_lossless({step}, original)));
      } else {
        const YccImage transformed = transform::apply(
            {step}, jpeg::inverse_transform(shared.perturbed));
        recovered = to_gray(ycc_to_rgb(
            core::recover_pixels(transformed, shared.params, {step}, keys)));
        reference = to_gray(ycc_to_rgb(
            transform::apply({step}, jpeg::inverse_transform(original))));
      }
      pu_psnr.push_back(finite_db(psnr(reference, recovered)));
      pu_ssim.push_back(ssim(reference, recovered));

      // --- P3: split whole image, both parts take the standard path.
      const p3::Split split = p3::split(original, 20);
      GrayU8 p3_rec;
      GrayU8 p3_ref;
      if (step.kind == transform::Kind::kRecompress) {
        // P3's compression support is coefficient-domain; both schemes
        // handle it, so requantize both parts and recombine.
        const jpeg::CoefficientImage rq_pub =
            jpeg::requantize(split.public_part, step.arg0);
        const jpeg::CoefficientImage rq_priv =
            jpeg::requantize(split.private_part, step.arg0);
        p3_rec = to_gray(jpeg::decode_to_rgb(
            p3::recombine(rq_pub, rq_priv)));
        p3_ref = to_gray(jpeg::decode_to_rgb(jpeg::requantize(original,
                                                              step.arg0)));
      } else {
        p3_rec = to_gray(p3::recombine_after_pixel_transform(split, step, 85));
        p3_ref = to_gray(ycc_to_rgb(
            transform::apply({step}, jpeg::inverse_transform(original))));
      }
      p3_psnr.push_back(finite_db(psnr(p3_ref, p3_rec)));
      p3_ssim.push_back(ssim(p3_ref, p3_rec));
    }
    std::printf("%-16s %12.2f %12.3f %12.2f %12.3f\n", c.name,
                bench::Stats::of(pu_psnr).mean, bench::Stats::of(pu_ssim).mean,
                bench::Stats::of(p3_psnr).mean, bench::Stats::of(p3_ssim).mean);
  }

  std::printf(
      "\npaper shape: PuPPIeS exact (Fig. 16 'exactly the same'); P3 loses\n"
      "fine detail after pixel-domain transforms (Fig. 4(b)).\n");
  return 0;
}
