// Table II: normalized size of perturbed images in the PASCAL dataset,
// whole-image perturbation (worst-case overhead), medium privacy.
//
// Paper: PuPPIeS-B 10.45 / 9.69 (mean/median, default Huffman tables),
//        PuPPIeS-C 1.46 / 1.41 (rebuilt Huffman tables),
//        PuPPIeS-Z 1.23 / 1.22.
#include "bench_common.h"
#include "puppies/core/perturb.h"

using namespace puppies;

namespace {

double normalized_size(const jpeg::CoefficientImage& original,
                       std::size_t original_bytes, core::Scheme scheme,
                       jpeg::HuffmanMode mode, const SecretKey& key) {
  jpeg::CoefficientImage img = original;
  const core::MatrixPair pair = core::MatrixPair::derive(key);
  core::perturb_roi(img, bench::full_roi(img), pair, scheme,
                    core::params_for(core::PrivacyLevel::kMedium));
  const std::size_t bytes =
      jpeg::serialize(img, bench::paper_size_options(mode)).size();
  return static_cast<double>(bytes) / static_cast<double>(original_bytes);
}

}  // namespace

int main() {
  bench::header("Table II: normalized perturbed image size (PASCAL, whole image)",
                "Table II");
  const int n = synth::bench_sample_count(synth::Dataset::kPascal, 16);
  std::printf("images: %d of %d\n\n", n,
              synth::profile(synth::Dataset::kPascal).count);

  std::vector<double> base, compression, zero;
  for (int i = 0; i < n; ++i) {
    const synth::SceneImage scene = bench::load(synth::Dataset::kPascal, i);
    const jpeg::CoefficientImage original =
        jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
    const std::size_t original_bytes =
        jpeg::serialize(original, bench::paper_size_options(
                                      jpeg::HuffmanMode::kStandard))
            .size();
    const SecretKey key = SecretKey::from_label("table2/" + std::to_string(i));
    // PuPPIeS-B keeps the library-default tables (that IS its overhead story);
    // C and Z rebuild tables from the perturbed statistics.
    base.push_back(normalized_size(original, original_bytes,
                                   core::Scheme::kBase,
                                   jpeg::HuffmanMode::kStandard, key));
    compression.push_back(normalized_size(original, original_bytes,
                                          core::Scheme::kCompression,
                                          jpeg::HuffmanMode::kOptimized, key));
    zero.push_back(normalized_size(original, original_bytes,
                                   core::Scheme::kZero,
                                   jpeg::HuffmanMode::kOptimized, key));
  }

  bench::print_stats_heading("scheme");
  bench::print_stats_row("PuPPIeS-Base", bench::Stats::of(base));
  bench::print_stats_row("PuPPIeS-Compression", bench::Stats::of(compression));
  bench::print_stats_row("PuPPIeS-Zero", bench::Stats::of(zero));
  std::printf(
      "\npaper (mean/median): B 10.45/9.69, C 1.46/1.41, Z 1.23/1.22\n"
      "expected shape: B >> C > Z >= 1\n");
  return 0;
}
