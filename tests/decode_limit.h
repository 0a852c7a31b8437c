// Test helper shared by the hostile-input suites (tests_fuzz, tests_net).
#pragma once

#include <cstddef>

#include "puppies/jpeg/codec.h"

namespace puppies::jpeg {

/// Lowers the decoder's pixel bound for one scope and restores the default
/// after it: a hostile size that got past a check then allocates megabytes,
/// not gigabytes.
struct DecodeLimit {
  explicit DecodeLimit(std::size_t pixels) { set_max_decode_pixels(pixels); }
  ~DecodeLimit() { set_max_decode_pixels(0); }
  DecodeLimit(const DecodeLimit&) = delete;
  DecodeLimit& operator=(const DecodeLimit&) = delete;
};

}  // namespace puppies::jpeg
