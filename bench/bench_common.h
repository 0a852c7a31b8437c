#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

namespace puppies::bench {

/// Five-number summary used by the paper's size/time tables.
struct Stats {
  double mean = 0, median = 0, stddev = 0, min = 0, max = 0;

  static Stats of(std::vector<double> xs) {
    Stats s;
    if (xs.empty()) return s;
    std::sort(xs.begin(), xs.end());
    s.min = xs.front();
    s.max = xs.back();
    s.median = xs[xs.size() / 2];
    for (double x : xs) s.mean += x;
    s.mean /= static_cast<double>(xs.size());
    for (double x : xs) s.stddev += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(s.stddev / static_cast<double>(xs.size()));
    return s;
  }
};

/// INRIA is generated at reduced resolution by default so every bench runs
/// in minutes on one core; PUPPIES_INRIA_FULL=1 restores 2448x3264.
inline synth::SceneImage load(synth::Dataset d, int index) {
  if (d == synth::Dataset::kInria) {
    const bool full = std::getenv("PUPPIES_INRIA_FULL") != nullptr;
    if (!full) return synth::generate(d, index, 816, 1088);
  }
  return synth::generate(d, index);
}

inline Rect full_roi(const jpeg::CoefficientImage& img) {
  return Rect{0, 0, img.blocks_w() * 8, img.blocks_h() * 8};
}

/// Encode settings for the file sizes the paper reports: no restart
/// markers, as in the paper's encoder, so the sizes stay comparable to its
/// figures (the library default adds one RSTn per MCU row).
inline jpeg::EncodeOptions paper_size_options(
    jpeg::HuffmanMode huffman = jpeg::HuffmanMode::kOptimized) {
  jpeg::EncodeOptions eo;
  eo.huffman = huffman;
  eo.restart_interval = 0;
  return eo;
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  const char* scale = std::getenv("PUPPIES_SCALE");
  std::printf("PUPPIES_SCALE=%s (set to 1.0 for the paper's full counts)\n",
              scale ? scale : "(default 0.02)");
  std::printf("================================================================\n");
}

inline void print_stats_row(const char* label, const Stats& s) {
  std::printf("%-28s %8.2f %8.2f %8.3f %8.2f %8.2f\n", label, s.mean,
              s.median, s.stddev, s.min, s.max);
}

inline void print_stats_heading(const char* first_col) {
  std::printf("%-28s %8s %8s %8s %8s %8s\n", first_col, "mean", "median",
              "std", "min", "max");
}

/// Best-of-N wall time of fn() in milliseconds.
template <typename Fn>
inline double min_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// One timed stage at one thread count, for the BENCH_*.json trajectory
/// files. mp_per_s <= 0 omits the throughput field.
struct StageRecord {
  std::string stage;
  int threads = 1;
  double ms = 0;
  double mp_per_s = 0;
};

/// Writes the machine-readable perf record next to the bench's stdout
/// report. One JSON object per file, stages as a flat array, so the perf
/// trajectory is trivially diffable across PRs. `extras` is pre-rendered
/// JSON inserted verbatim between the stages array and the trailing fields;
/// each line must end with ",\n".
inline void write_bench_json(const char* path, const char* bench, int width,
                             int height, int hardware_threads,
                             const std::vector<StageRecord>& stages,
                             bool byte_identical, double speedup,
                             const std::string& extras = "") {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
  std::fprintf(f,
               "  \"image\": {\"width\": %d, \"height\": %d, "
               "\"megapixels\": %.3f},\n",
               width, height, width * height / 1e6);
  std::fprintf(f, "  \"hardware_threads\": %d,\n", hardware_threads);
  std::fprintf(f, "  \"stages\": [\n");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageRecord& s = stages[i];
    std::fprintf(f, "    {\"stage\": \"%s\", \"threads\": %d, \"ms\": %.3f",
                 s.stage.c_str(), s.threads, s.ms);
    if (s.mp_per_s > 0) std::fprintf(f, ", \"mp_per_s\": %.3f", s.mp_per_s);
    std::fprintf(f, "}%s\n", i + 1 < stages.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (!extras.empty()) std::fprintf(f, "%s", extras.c_str());
  std::fprintf(f, "  \"output_byte_identical\": %s,\n",
               byte_identical ? "true" : "false");
  std::fprintf(f, "  \"speedup_vs_1_thread\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace puppies::bench
