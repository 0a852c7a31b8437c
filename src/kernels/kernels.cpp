// Runtime dispatch for the puppies::kernels tier table. Resolution order
// for the active tier: configure() (CLI --simd) > PUPPIES_SIMD env var >
// CPUID probe. The SHA-256 block function is resolved with the tier, so the
// one override forces both. The selections are published as the metrics
// gauges "kernels.simd_tier" and "kernels.sha256_impl" so `store stats
// --json` and the bench records show what the process actually ran.
#include "puppies/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <numbers>
#include <string>

#if defined(PUPPIES_KERNELS_HAVE_SHANI)
#include <cpuid.h>
#endif

#include "kernels_internal.h"
#include "puppies/common/error.h"
#include "puppies/metrics/metrics.h"

namespace puppies::kernels {

namespace {

struct CosTables {
  float c[64];   // c[u * 8 + x] = 0.5 * C(u) * cos((2x+1) u pi / 16)
  float ct[64];  // transpose: ct[x * 8 + u]
  CosTables() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? 1.0 / std::numbers::sqrt2 : 1.0;
      for (int x = 0; x < 8; ++x) {
        const float v = static_cast<float>(
            0.5 * cu * std::cos((2 * x + 1) * u * std::numbers::pi / 16.0));
        c[u * 8 + x] = v;
        ct[x * 8 + u] = v;
      }
    }
  }
};

const CosTables& cosines() {
  static const CosTables tables;
  return tables;
}

bool cpu_supported(SimdTier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
      return __builtin_cpu_supports("sse2");
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2");
  }
  return false;
#else
  return tier == SimdTier::kScalar;
#endif
}

bool compiled_in(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
#if defined(PUPPIES_KERNELS_HAVE_SSE2)
      return true;
#else
      return false;
#endif
    case SimdTier::kAvx2:
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

#if defined(PUPPIES_KERNELS_HAVE_SHANI)
// CPUID leaf 7 EBX bit 29 is the SHA extensions; the SHA-NI TU also uses
// SSE4.1 (blend) and SSSE3 (byte shuffle), which every SSE4.1 CPU has.
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0 && __builtin_cpu_supports("sse4.1");
}
#endif

std::mutex g_mu;
std::atomic<const KernelTable*> g_active{nullptr};
SimdTier g_active_tier = SimdTier::kScalar;
std::atomic<Sha256Impl> g_active_sha{Sha256Impl::kPortable};

SimdTier resolve_initial_tier() {
  if (const char* env = std::getenv("PUPPIES_SIMD"); env && *env) {
    const SimdTier t = parse_tier(env);
    require(tier_supported(t),
            "PUPPIES_SIMD requests a tier this machine cannot run");
    return t;
  }
  return detected_tier();
}

void activate_locked(SimdTier tier) {
  const Sha256Impl sha =
      tier != SimdTier::kScalar && sha256_impl_supported(Sha256Impl::kShaNi)
          ? Sha256Impl::kShaNi
          : Sha256Impl::kPortable;
  g_active_tier = tier;
  g_active_sha.store(sha, std::memory_order_relaxed);
  g_active.store(&table_for(tier), std::memory_order_release);
  metrics::Registry& reg = metrics::Registry::instance();
  reg.gauge("kernels.simd_tier").set(static_cast<int>(tier));
  reg.gauge("kernels.sha256_impl").set(static_cast<int>(sha));
}

const KernelTable* ensure_active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t) return t;
  std::lock_guard lock(g_mu);
  if (!g_active.load(std::memory_order_relaxed))
    activate_locked(resolve_initial_tier());
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace

std::string_view to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSse2:
      return "sse2";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdTier parse_tier(std::string_view name) {
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "sse2") return SimdTier::kSse2;
  if (name == "avx2") return SimdTier::kAvx2;
  throw InvalidArgument("unknown SIMD tier '" + std::string(name) +
                        "', expected scalar|sse2|avx2");
}

SimdTier detected_tier() {
  static const SimdTier best = [] {
    for (const SimdTier t : {SimdTier::kAvx2, SimdTier::kSse2})
      if (compiled_in(t) && cpu_supported(t)) return t;
    return SimdTier::kScalar;
  }();
  return best;
}

bool tier_supported(SimdTier tier) {
  return compiled_in(tier) && cpu_supported(tier);
}

const KernelTable& table_for(SimdTier tier) {
  if (!tier_supported(tier))
    throw InvalidArgument("SIMD tier " + std::string(to_string(tier)) +
                          " is not supported on this machine");
  switch (tier) {
    case SimdTier::kSse2:
#if defined(PUPPIES_KERNELS_HAVE_SSE2)
      return detail::table_sse2();
#else
      break;
#endif
    case SimdTier::kAvx2:
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
      return detail::table_avx2();
#else
      break;
#endif
    default:
      break;
  }
  return detail::table_scalar();
}

void configure(SimdTier tier) {
  table_for(tier);  // validates support
  std::lock_guard lock(g_mu);
  activate_locked(tier);
}

SimdTier active_tier() {
  ensure_active();
  std::lock_guard lock(g_mu);
  return g_active_tier;
}

const KernelTable& active() { return *ensure_active(); }

std::string_view to_string(Sha256Impl impl) {
  return impl == Sha256Impl::kShaNi ? "sha_ni" : "portable";
}

bool sha256_impl_supported(Sha256Impl impl) {
#if defined(PUPPIES_KERNELS_HAVE_SHANI)
  static const bool sha_ni = cpu_has_sha_ni();
  if (impl == Sha256Impl::kShaNi) return sha_ni;
#endif
  return impl == Sha256Impl::kPortable;
}

detail::Sha256Blocks detail::sha256_blocks_for(Sha256Impl impl) {
  if (!sha256_impl_supported(impl))
    throw InvalidArgument("SHA-256 path " + std::string(to_string(impl)) +
                          " is not supported on this machine");
#if defined(PUPPIES_KERNELS_HAVE_SHANI)
  if (impl == Sha256Impl::kShaNi) return sha256_blocks_shani;
#endif
  return sha256_blocks_portable;
}

Sha256Impl active_sha256_impl() {
  ensure_active();
  return g_active_sha.load(std::memory_order_relaxed);
}

const float* cos_table() { return cosines().c; }
const float* cos_table_t() { return cosines().ct; }

}  // namespace puppies::kernels
