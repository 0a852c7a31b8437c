// PSP serving throughput: cold vs. warm transform-result cache.
//
// Uploads a corpus of protected PASCAL images to an in-memory PSP, then
// serves the same transform request twice: once against a cold cache (full
// codec work: inverse DCT, pixel transform, forward DCT + entropy coding)
// and once warm (cache hits only). Emits BENCH_psp.json with both
// throughputs, the cache hit ratio, and a byte-identity check — the cache
// must only save work, never change a single served byte.
#include "bench_common.h"
#include "puppies/core/pipeline.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"

using namespace puppies;

namespace {

struct Pass {
  std::vector<psp::Download> downloads;
  double ms = 0;
};

Pass serve(psp::PspService& psp, const std::vector<std::string>& ids,
           const transform::Chain& chain, psp::DeliveryMode mode,
           int quality) {
  Pass p;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& id : ids) {
    psp.apply_transform(id, chain, mode, quality);
    p.downloads.push_back(psp.download(id));
  }
  const auto t1 = std::chrono::steady_clock::now();
  p.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return p;
}

bool same_bytes(const Pass& a, const Pass& b) {
  if (a.downloads.size() != b.downloads.size()) return false;
  for (std::size_t i = 0; i < a.downloads.size(); ++i)
    if (a.downloads[i].jfif != b.downloads[i].jfif) return false;
  return true;
}

}  // namespace

int main() {
  bench::header("PSP serving: cold vs warm transform cache",
                "Sec. 7 deployment (store/cache extension)");
  const int n = synth::bench_sample_count(synth::Dataset::kPascal, 8);
  std::printf("images: %d\n", n);

  psp::PspService psp;  // in-memory backend, default cache budget
  std::vector<std::string> ids;
  double megapixels = 0;
  int w = 0, h = 0;
  for (int i = 0; i < n; ++i) {
    const synth::SceneImage scene = bench::load(synth::Dataset::kPascal, i);
    w = scene.image.width();
    h = scene.image.height();
    megapixels += w * h / 1e6;
    const jpeg::CoefficientImage original =
        jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
    const SecretKey key =
        SecretKey::from_label("bench_psp/" + std::to_string(i));
    const core::ProtectResult shared = core::protect(
        original, {core::RoiPolicy{Rect{16, 16, 64, 48}, key,
                                   core::Scheme::kCompression,
                                   core::PrivacyLevel::kMedium}});
    ids.push_back(psp.upload(jpeg::serialize(shared.perturbed),
                             shared.params.serialize()));
  }

  // Clamped re-encode is the codec-heavy delivery path and the realistic
  // serving mode — the cache's best case.
  const transform::Chain chain{transform::rotate(180)};
  metrics::reset_all();
  const Pass cold =
      serve(psp, ids, chain, psp::DeliveryMode::kClampedReencode, 80);
  const Pass warm =
      serve(psp, ids, chain, psp::DeliveryMode::kClampedReencode, 80);

  const std::uint64_t hits = metrics::counter("cache.hit").value();
  const std::uint64_t misses = metrics::counter("cache.miss").value();
  const double hit_ratio =
      hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0;
  const bool identical = same_bytes(cold, warm);
  const double cold_mps = megapixels / (cold.ms / 1e3);
  const double warm_mps = megapixels / (warm.ms / 1e3);

  std::printf("\n%-24s %10s %12s\n", "pass", "ms", "MP/s");
  std::printf("%-24s %10.2f %12.2f\n", "cold (cache fill)", cold.ms, cold_mps);
  std::printf("%-24s %10.2f %12.2f\n", "warm (cache hit)", warm.ms, warm_mps);
  std::printf("\ncache: %llu hits / %llu misses (hit ratio %.3f)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_ratio);
  std::printf("cold and warm downloads byte-identical: %s\n",
              identical ? "yes" : "NO — BUG");

  std::FILE* f = std::fopen("BENCH_psp.json", "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write BENCH_psp.json\n");
    return identical ? 0 : 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_psp\",\n");
  std::fprintf(f, "  \"images\": %d,\n  \"megapixels\": %.3f,\n", n,
               megapixels);
  std::fprintf(f,
               "  \"stages\": [\n"
               "    {\"stage\": \"cold_apply_download\", \"ms\": %.3f, "
               "\"mp_per_s\": %.3f},\n"
               "    {\"stage\": \"warm_apply_download\", \"ms\": %.3f, "
               "\"mp_per_s\": %.3f}\n  ],\n",
               cold.ms, cold_mps, warm.ms, warm_mps);
  std::fprintf(f,
               "  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"hit_ratio\": %.4f},\n",
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), hit_ratio);
  std::fprintf(f, "  \"output_byte_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"speedup_warm_vs_cold\": %.3f,\n",
               warm.ms > 0 ? cold.ms / warm.ms : 0.0);
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics::dump_json().c_str());
  std::fclose(f);
  std::printf("wrote BENCH_psp.json\n");
  return identical ? 0 : 1;
}
