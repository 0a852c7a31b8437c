// Fig. 18: normalized size of the public part (perturbed image + public
// parameters) as the ROI covers 20%..100% of the image, medium privacy.
// Series: PuPPIeS-C, PuPPIeS-Z, PuPPIeS-Z without ZInd, and P3's public
// part (flat: P3 always splits the whole image).
#include "bench_common.h"
#include "puppies/core/pipeline.h"
#include "puppies/p3/p3.h"

using namespace puppies;

namespace {

double public_part_size(const jpeg::CoefficientImage& original,
                        std::size_t original_bytes, core::Scheme scheme,
                        double roi_fraction, int index, bool without_zind) {
  // A centered ROI covering roi_fraction of the area.
  const int w = original.blocks_w() * 8, h = original.blocks_h() * 8;
  const double side = std::sqrt(roi_fraction);
  const Rect roi = Rect{static_cast<int>(w * (1 - side) / 2),
                        static_cast<int>(h * (1 - side) / 2),
                        static_cast<int>(w * side),
                        static_cast<int>(h * side)}
                       .aligned_to(8, Rect{0, 0, w, h});
  const core::ProtectResult shared = core::protect(
      original,
      {core::RoiPolicy{roi, SecretKey::from_label("fig18/" + std::to_string(index)),
                       scheme, core::PrivacyLevel::kMedium}});
  const std::size_t image_bytes = jpeg::serialize(shared.perturbed, bench::paper_size_options()).size();
  const std::size_t param_bytes = without_zind
                                      ? shared.params.byte_size_without_zind()
                                      : shared.params.byte_size();
  return static_cast<double>(image_bytes + param_bytes) /
         static_cast<double>(original_bytes);
}

}  // namespace

int main() {
  bench::header("Fig. 18: normalized public-part size vs ROI area (PASCAL, INRIA)",
                "Fig. 18");
  for (const synth::Dataset d :
       {synth::Dataset::kPascal, synth::Dataset::kInria}) {
    const int n = std::min(synth::bench_sample_count(d, 5),
                           d == synth::Dataset::kInria ? 5 : 16);
    std::printf("\n%s (%d images)\n", std::string(synth::profile(d).name).c_str(), n);
    std::printf("%-10s %12s %12s %14s %10s\n", "ROI-area", "PuPPIeS-C",
                "PuPPIeS-Z", "Z(no ZInd)", "P3");
    for (const int pct : {20, 40, 60, 80, 100}) {
      std::vector<double> c, z, z_no, p3s;
      for (int i = 0; i < n; ++i) {
        const synth::SceneImage scene = bench::load(d, i);
        const jpeg::CoefficientImage original =
            jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
        const std::size_t original_bytes =
            jpeg::serialize(original, bench::paper_size_options(
                                          jpeg::HuffmanMode::kStandard))
                .size();
        c.push_back(public_part_size(original, original_bytes,
                                     core::Scheme::kCompression, pct / 100.0,
                                     i, false));
        z.push_back(public_part_size(original, original_bytes,
                                     core::Scheme::kZero, pct / 100.0, i,
                                     false));
        z_no.push_back(public_part_size(original, original_bytes,
                                        core::Scheme::kZero, pct / 100.0, i,
                                        true));
        const p3::Split split = p3::split(original, 20);
        p3s.push_back(static_cast<double>(p3::public_size(split)) /
                      static_cast<double>(original_bytes));
      }
      std::printf("%7d%%   %12.3f %12.3f %14.3f %10.3f\n", pct,
                  bench::Stats::of(c).mean, bench::Stats::of(z).mean,
                  bench::Stats::of(z_no).mean, bench::Stats::of(p3s).mean);
    }
  }
  std::printf(
      "\npaper shape: public part grows linearly with ROI area; Z above C\n"
      "by the ZInd overhead (12-36%% of it); Z without ZInd below Z; P3 is\n"
      "flat and much smaller (it strips the whole image).\n");
  return 0;
}
