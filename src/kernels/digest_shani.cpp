// SHA-256 block function on the x86 SHA extensions. This is the only TU
// built with -msha -msse4.1; kernels.cpp hands it out only when CPUID
// reports both (sha256_impl_supported). Byte-identical to the portable
// compression in digest.cpp by definition: both compute FIPS 180-4.
#include <immintrin.h>

#include "kernels_internal.h"

namespace puppies::kernels::detail {
namespace {

/// Four rounds on the message words w = W[4g..4g+3]. The state is kept as
/// the two halves the instruction takes, named by lane from high to low as
/// in Intel's notation: abef holds a, b, e, f and cdgh holds c, d, g, h.
inline void quad(__m128i& abef, __m128i& cdgh, __m128i w, int g) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(kSha256RoundK + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// W[t..t+3] from the sixteen words before it, w0 the oldest four.
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

void sha256_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<__m128i*>(state)),
                        0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    const auto load = [&](int i) {
      return _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    };
    __m128i w0 = load(0), w1 = load(1), w2 = load(2), w3 = load(3);
    quad(abef, cdgh, w0, 0);
    quad(abef, cdgh, w1, 1);
    quad(abef, cdgh, w2, 2);
    quad(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = schedule(w0, w1, w2, w3);
      quad(abef, cdgh, w0, g);
      w1 = schedule(w1, w2, w3, w0);
      quad(abef, cdgh, w1, g + 1);
      w2 = schedule(w2, w3, w0, w1);
      quad(abef, cdgh, w2, g + 2);
      w3 = schedule(w3, w0, w1, w2);
      quad(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace puppies::kernels::detail
