// Ablation bench for the design choices DESIGN.md calls out:
//  (a) Huffman-table re-optimization (the PuPPIeS-B -> C fix),
//  (b) the WInd wrap-index extension for pixel-domain shadow recovery,
//  (c) idealized linear-float PSP delivery vs realistic clamp+re-encode.
#include "bench_common.h"
#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"

using namespace puppies;

namespace {

double finite_db(double v) { return std::isinf(v) ? 99.0 : v; }

}  // namespace

int main() {
  bench::header("Ablations: Huffman re-optimization, WInd, PSP delivery mode",
                "DESIGN.md §5 design choices");

  // ---------------------------------------------------------------- (a)
  std::printf("(a) Huffman tables: standard vs re-optimized, whole-image\n");
  std::printf("    perturbation, medium privacy (normalized size)\n");
  std::printf("%-22s %10s %10s\n", "scheme", "standard", "optimized");
  const int n = std::min(synth::bench_sample_count(synth::Dataset::kPascal, 6), 12);
  for (const core::Scheme scheme :
       {core::Scheme::kBase, core::Scheme::kCompression, core::Scheme::kZero}) {
    std::vector<double> std_sizes, opt_sizes;
    for (int i = 0; i < n; ++i) {
      const synth::SceneImage scene = bench::load(synth::Dataset::kPascal, i);
      const jpeg::CoefficientImage original =
          jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
      const double base = static_cast<double>(
          jpeg::serialize(original, bench::paper_size_options(
                                        jpeg::HuffmanMode::kStandard))
              .size());
      jpeg::CoefficientImage img = original;
      core::perturb_roi(img, bench::full_roi(img),
                        core::MatrixPair::derive(SecretKey::from_label(
                            "ablate/" + std::to_string(i))),
                        scheme, core::params_for(core::PrivacyLevel::kMedium));
      std_sizes.push_back(
          jpeg::serialize(img, bench::paper_size_options(
                                   jpeg::HuffmanMode::kStandard))
              .size() /
          base);
      opt_sizes.push_back(
          jpeg::serialize(img, bench::paper_size_options(
                                   jpeg::HuffmanMode::kOptimized))
              .size() /
          base);
    }
    std::printf("%-22s %10.2f %10.2f\n",
                std::string(core::to_string(scheme)).c_str(),
                bench::Stats::of(std_sizes).mean,
                bench::Stats::of(opt_sizes).mean);
  }
  std::printf("    expected: optimization shrinks every scheme; it is what\n"
              "    turns B's ~10x blow-up into C's ~1.5x.\n\n");

  // ---------------------------------------------------------------- (b,c)
  std::printf("(b,c) shadow recovery PSNR after PSP 50%% scaling\n");
  std::printf("%-44s %10s\n", "variant", "PSNR (dB)");
  std::vector<double> with_wind, without_wind, clamped;
  const int m = 6;
  for (int i = 0; i < m; ++i) {
    const synth::SceneImage scene =
        synth::generate(synth::Dataset::kPascal, i, 160, 120);
    const jpeg::CoefficientImage original =
        jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
    const SecretKey key = SecretKey::from_label("ablate-wind/" + std::to_string(i));
    const Rect roi{32, 24, 64, 48};
    const core::ProtectResult shared = core::protect(
        original, {core::RoiPolicy{roi, key, core::Scheme::kCompression,
                                   core::PrivacyLevel::kMedium}});
    core::KeyRing keys;
    keys.add(key);
    const transform::Chain chain{
        transform::scale(original.width() / 2, original.height() / 2)};
    const GrayU8 reference = to_gray(ycc_to_rgb(
        transform::apply(chain, jpeg::inverse_transform(original))));

    // (b) with WInd (the library default).
    const YccImage linear =
        transform::apply(chain, jpeg::inverse_transform(shared.perturbed));
    with_wind.push_back(finite_db(psnr(
        reference,
        to_gray(ycc_to_rgb(
            core::recover_pixels(linear, shared.params, chain, keys))))));

    // (b) without WInd: strip the wrap index (the paper's literal scheme).
    core::PublicParameters stripped = shared.params;
    for (core::ProtectedRoi& r : stripped.rois) r.wind = core::PositionSet{};
    without_wind.push_back(finite_db(psnr(
        reference,
        to_gray(ycc_to_rgb(
            core::recover_pixels(linear, stripped, chain, keys))))));

    // (c) realistic clamped PSP: 8-bit clamp before scaling.
    YccImage clamped_pixels = jpeg::inverse_transform(shared.perturbed);
    for (int c = 0; c < 3; ++c) {
      Plane<float>& p = clamped_pixels.component(c);
      for (int y = 0; y < p.height(); ++y)
        for (int x = 0; x < p.width(); ++x)
          p.at(x, y) = static_cast<float>(clamp_u8(p.at(x, y)));
    }
    clamped.push_back(finite_db(psnr(
        reference,
        to_gray(ycc_to_rgb(core::recover_pixels(
            transform::apply(chain, clamped_pixels), shared.params, chain,
            keys))))));
  }
  std::printf("%-44s %10.2f\n", "WInd + linear PSP (library default)",
              bench::Stats::of(with_wind).mean);
  std::printf("%-44s %10.2f\n", "no WInd (paper's literal scheme)",
              bench::Stats::of(without_wind).mean);
  std::printf("%-44s %10.2f\n", "WInd + clamped 8-bit PSP",
              bench::Stats::of(clamped).mean);

  // ---------------------------------------------------------------- (d)
  std::printf("\n(d) chroma layout: 4:4:4 vs 4:2:0 "
              "(perturbed size / recovery exactness)\n");
  {
    std::vector<double> size444, size420;
    bool exact420 = true;
    for (int i = 0; i < 6; ++i) {
      const synth::SceneImage scene =
          synth::generate(synth::Dataset::kPascal, i, 160, 112);
      for (const jpeg::ChromaMode mode :
           {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
        const jpeg::CoefficientImage original =
            jpeg::forward_transform(rgb_to_ycc(scene.image), 75, mode);
        const SecretKey key =
            SecretKey::from_label("ablate-chroma/" + std::to_string(i));
        const core::ProtectResult shared = core::protect(
            original, {core::RoiPolicy{Rect{32, 32, 64, 48}, key,
                                       core::Scheme::kCompression,
                                       core::PrivacyLevel::kMedium}});
        const double ratio =
            static_cast<double>(
                jpeg::serialize(shared.perturbed, bench::paper_size_options())
                    .size()) /
            static_cast<double>(
                jpeg::serialize(original, bench::paper_size_options()).size());
        core::KeyRing keys;
        keys.add(key);
        const bool exact =
            core::recover(jpeg::parse(jpeg::serialize(shared.perturbed)),
                          shared.params, keys) == original;
        if (mode == jpeg::ChromaMode::k444)
          size444.push_back(ratio);
        else {
          size420.push_back(ratio);
          exact420 &= exact;
        }
      }
    }
    std::printf("%-44s %10.2f\n", "normalized perturbed size, 4:4:4",
                bench::Stats::of(size444).mean);
    std::printf("%-44s %10.2f\n", "normalized perturbed size, 4:2:0",
                bench::Stats::of(size420).mean);
    std::printf("%-44s %10s\n", "bit-exact recovery on 4:2:0",
                exact420 ? "yes" : "NO");
    std::printf("    4:2:0 has 1/2 the chroma blocks to perturb, so the\n"
                "    same privacy level costs proportionally less.\n");
  }
  std::printf(
      "    expected: WInd+linear is near-exact; dropping WInd leaves 2048-\n"
      "    step DC errors wherever the modular add wrapped (~50%% of ROI\n"
      "    blocks); clamping at the PSP destroys out-of-range perturbed\n"
      "    pixels before the shadow can be subtracted. This quantifies the\n"
      "    paper's unstated linearity assumptions (DESIGN.md §5.3).\n");
  return 0;
}
