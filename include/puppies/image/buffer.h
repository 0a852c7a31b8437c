#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "puppies/exec/parallel_for.h"

namespace puppies {

/// Heap storage for image-sized arrays: the pixels of a Plane<T> and the
/// blocks of a jpeg::Component. A fresh 8 MP frame is ~100 MB of pages that
/// the kernel maps on first write, and on one thread those faults cost as
/// much as the codec work that follows (DESIGN.md §6). So allocation
/// leaves the memory untouched, and the fill or copy that first writes it
/// runs on the exec pool in fixed chunks of about 1 MB. Every element is
/// written from one value or from the same index of the source, so the
/// bytes never depend on the lane count.
///
/// No operation hands out an element that has not been written: there is
/// no count-only constructor and no resize.
template <typename T>
class ImageBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "ImageBuffer holds plain pixel and coefficient values");

 public:
  /// Elements per fill/copy chunk. A buffer of one chunk is written inline
  /// and never reaches the pool.
  static constexpr std::size_t kChunk =
      std::max<std::size_t>(1, (std::size_t{1} << 20) / sizeof(T));

  ImageBuffer() = default;
  /// n elements, each set to `value`.
  ImageBuffer(std::size_t n, const T& value) : data_(allocate(n)), size_(n) {
    fill(value);
  }
  ImageBuffer(const ImageBuffer& other)
      : data_(allocate(other.size_)), size_(other.size_) {
    copy_from(other.data());
  }
  ImageBuffer(ImageBuffer&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}

  ImageBuffer& operator=(const ImageBuffer& other) {
    if (this == &other) return *this;
    if (size_ != other.size_) {
      data_ = allocate(other.size_);
      size_ = other.size_;
    }
    copy_from(other.data());
    return *this;
  }
  ImageBuffer& operator=(ImageBuffer&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// `value` is a copy, so filling with one of this buffer's own elements
  /// does not read it while the lanes overwrite it.
  void fill(T value) {
    T* out = data();
    for_each_chunk([&](std::size_t begin, std::size_t end) {
      std::fill(out + begin, out + end, value);
    });
  }

  bool operator==(const ImageBuffer& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  static std::unique_ptr<T[]> allocate(std::size_t n) {
    return n == 0 ? nullptr : std::make_unique_for_overwrite<T[]>(n);
  }

  void copy_from(const T* src) {
    T* out = data();
    for_each_chunk([&](std::size_t begin, std::size_t end) {
      std::copy(src + begin, src + end, out + begin);
    });
  }

  template <typename Fn>
  void for_each_chunk(Fn&& fn) {
    if (size_ <= kChunk) {
      fn(std::size_t{0}, size_);
      return;
    }
    on_pool(fn);
  }

  // Out of line, so the many sites that build or copy a small plane inline
  // only the one-chunk path and not the pool call.
  template <typename Fn>
  [[gnu::noinline]] void on_pool(Fn& fn) {
    exec::parallel_for_chunked(
        size_, kChunk,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          fn(begin, end);
        });
  }

  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

}  // namespace puppies
