// Fig. 17: normalized perturbed-image size under the three privacy settings
// (Table IV), whole-image perturbation, PASCAL and INRIA.
//
// Paper shape: low ~ 1 (DC only, negligible), medium ~ 1.1-2, high up to
// 5x (PASCAL) / 8x (INRIA) for PuPPIeS-C; the C-Z gap grows with the level.
#include "bench_common.h"
#include "puppies/core/perturb.h"

using namespace puppies;

namespace {

bench::Stats measure(synth::Dataset d, core::Scheme scheme,
                     core::PrivacyLevel level, int n) {
  std::vector<double> sizes;
  for (int i = 0; i < n; ++i) {
    const synth::SceneImage scene = bench::load(d, i);
    const jpeg::CoefficientImage original =
        jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
    const std::size_t original_bytes =
        jpeg::serialize(original, bench::paper_size_options(
                                      jpeg::HuffmanMode::kStandard))
            .size();
    jpeg::CoefficientImage img = original;
    const core::MatrixPair pair = core::MatrixPair::derive(
        SecretKey::from_label("fig17/" + std::to_string(i)));
    core::perturb_roi(img, bench::full_roi(img), pair, scheme,
                      core::params_for(level));
    sizes.push_back(static_cast<double>(jpeg::serialize(img, bench::paper_size_options()).size()) /
                    static_cast<double>(original_bytes));
  }
  return bench::Stats::of(sizes);
}

}  // namespace

int main() {
  bench::header(
      "Fig. 17: normalized perturbed size vs privacy level (whole image)",
      "Fig. 17, Table IV");
  for (const synth::Dataset d :
       {synth::Dataset::kPascal, synth::Dataset::kInria}) {
    const int n = std::min(synth::bench_sample_count(d, 6),
                           d == synth::Dataset::kInria ? 6 : 24);
    std::printf("\n%s (%d images)\n", std::string(synth::profile(d).name).c_str(), n);
    std::printf("%-10s %22s %22s\n", "level", "PuPPIeS-C (mean+-std)",
                "PuPPIeS-Z (mean+-std)");
    for (const core::PrivacyLevel level :
         {core::PrivacyLevel::kLow, core::PrivacyLevel::kMedium,
          core::PrivacyLevel::kHigh}) {
      const bench::Stats c = measure(d, core::Scheme::kCompression, level, n);
      const bench::Stats z = measure(d, core::Scheme::kZero, level, n);
      std::printf("%-10s %14.2f +-%5.2f %14.2f +-%5.2f\n",
                  std::string(core::to_string(level)).c_str(), c.mean,
                  c.stddev, z.mean, z.stddev);
    }
  }
  std::printf(
      "\npaper shape: size grows with privacy level; low ~ 1, high up to\n"
      "5x-8x for C; Z consistently below C with a gap that widens at high\n"
      "levels (zero-runs preserved).\n");
  return 0;
}
