#include "puppies/core/pipeline.h"

#include <algorithm>
#include <numeric>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"

namespace puppies::core {

namespace {

/// One window of the shadow: its pixels over `rect` of the current image,
/// and, until they are decoded, the keyed ROIs whose deltas it holds. The
/// shadow is zero outside every window.
struct Window {
  Rect rect;
  YccImage px;
  std::vector<DeltaRoi> rois;
};

/// Unites, in the union-find forest `parent`, every two of `rects` (in a
/// w x h image) that share a cell of the image's 8x8 grid. Rects that meet
/// at a pixel share its cell, so this unites every meeting pair and maybe a
/// few more, which only makes windows larger. Each rect paints at most one
/// cell per pixel it covers.
void unite_sharing_cells(const std::vector<Rect>& rects, int w, int h,
                         std::vector<int>& parent) {
  const auto root = [&](int i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  const int cw = (w + 7) / 8;
  std::vector<int> owner(static_cast<std::size_t>(cw) * ((h + 7) / 8), -1);
  for (int i = 0; i < static_cast<int>(rects.size()); ++i) {
    const Rect& r = rects[i];
    if (r.empty()) continue;
    for (int cy = r.y / 8; cy <= (r.bottom() - 1) / 8; ++cy)
      for (int cx = r.x / 8; cx <= (r.right() - 1) / 8; ++cx) {
        int& o = owner[static_cast<std::size_t>(cy) * cw + cx];
        if (o < 0)
          o = i;
        else
          parent[root(i)] = root(o);
      }
  }
  for (int& p : parent) p = root(p);
}

/// Rounds of merging before merge_windows settles for one window.
constexpr int kMergeRounds = 4;

/// Merges the windows over the `in` image until no two overlap or reach a
/// common pixel of the `out` image through the next step, then returns each
/// window's reach (`reach` maps a rect to the step's footprint of it). An
/// output pixel whose taps read two windows sums them in one expression in
/// the whole-frame shadow; computed window by window it would round
/// differently. Each round groups the windows in one pass; merging grows
/// windows, so a group may meet another in the next round. Once the
/// windows' or their reaches' summed area reaches their image, or after
/// kMergeRounds rounds, the windows become one window over the whole image:
/// the whole-frame case itself, so the bytes are the same and no step costs
/// more than one whole-image pass. Each window's pixels are copied once.
template <class Reach>
std::vector<Rect> merge_windows(std::vector<Window>& ws, const Rect& in,
                                const Rect& out, Reach&& reach) {
  if (ws.empty()) return {};
  // Rects only until the groups settle: group[i] is window i's group, and
  // rects[g] the bounding rect of group g.
  std::vector<int> group(ws.size());
  std::vector<Rect> rects, reaches;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    group[i] = static_cast<int>(i);
    rects.push_back(ws[i].rect);
  }
  const auto area = [](const std::vector<Rect>& rs) {
    long long sum = 0;
    for (const Rect& r : rs) sum += r.area();
    return sum;
  };
  for (int round = 0;; ++round) {
    reaches.clear();
    for (const Rect& r : rects) reaches.push_back(reach(r));
    if (round == kMergeRounds || area(rects) >= in.area() ||
        area(reaches) >= out.area()) {
      std::ranges::fill(group, 0);
      rects = {in};
      reaches = {reach(in)};
      break;
    }
    std::vector<int> parent(rects.size());
    std::iota(parent.begin(), parent.end(), 0);
    unite_sharing_cells(rects, in.w, in.h, parent);
    unite_sharing_cells(reaches, out.w, out.h, parent);
    // Number the groups in order of their first window.
    std::vector<int> slot(rects.size(), -1);
    std::vector<Rect> bounds;
    for (std::size_t g = 0; g < rects.size(); ++g) {
      int& k = slot[static_cast<std::size_t>(parent[g])];
      if (k < 0) {
        k = static_cast<int>(bounds.size());
        bounds.push_back(rects[g]);
      }
      bounds[static_cast<std::size_t>(k)] =
          Rect::bound(bounds[static_cast<std::size_t>(k)], rects[g]);
    }
    if (bounds.size() == rects.size()) break;  // nothing merged
    for (int& g : group)
      g = slot[static_cast<std::size_t>(parent[static_cast<std::size_t>(g)])];
    rects = std::move(bounds);
  }

  // One allocation per merged window, zero between its members; a window
  // alone in its rect moves.
  std::vector<int> members(rects.size(), 0);
  for (const int g : group) ++members[static_cast<std::size_t>(g)];
  std::vector<Window> merged(rects.size());
  for (std::size_t g = 0; g < rects.size(); ++g) merged[g].rect = rects[g];
  const bool decoded = !ws[0].px.y.empty();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    Window& w = ws[i];
    const auto g = static_cast<std::size_t>(group[i]);
    Window& m = merged[g];
    if (members[g] == 1 && w.rect == m.rect) {
      m = std::move(w);
      continue;
    }
    for (int c = 0; decoded && c < 3; ++c) {
      Plane<float>& plane = m.px.component(c);
      if (plane.empty()) plane = Plane<float>(m.rect.w, m.rect.h, 0.f);
      for (int y = 0; y < w.rect.h; ++y)
        std::ranges::copy(w.px.component(c).row(y),
                          plane.row(w.rect.y - m.rect.y + y).begin() +
                              (w.rect.x - m.rect.x));
    }
    m.rois.insert(m.rois.end(), w.rois.begin(), w.rois.end());
  }
  ws = std::move(merged);
  return reaches;
}

/// The decoded shadow of every ROI recoverable with `keys`, one window per
/// group of ROIs whose decodes meet. Each window's deltas sit on a
/// coefficient image the size of the window, so the ROI-local block index k
/// and every block are the whole-frame delta image's.
std::vector<Window> decode_shadow(const PublicParameters& params,
                                  const KeyRing& keys) {
  const Rect image{0, 0, params.width, params.height};
  std::vector<Window> ws;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;
    require(roi.scheme != Scheme::kZero,
            "pixel-domain recovery of a PuPPIeS-Z ROI is not possible; use a "
            "lossless chain or scheme B/C (DESIGN.md limitations)");
    require(params.roi_fits(roi.rect),
            "ROI rect outside the protected image's MCU grid");
    ws.push_back(Window{Rect::intersect(roi.rect, image), {},
                        {DeltaRoi{roi.rect, *set, roi.scheme, roi.params,
                                  &roi.wind}}});
  }
  // 4:4:4 decodes block by block. The 4:2:0 chroma upsampler's taps reach
  // one pixel past an ROI, so its window gets one MCU of zero padding on
  // each side, which keeps the origin on the MCU grid and the upsampling
  // ratio at exactly 1/2. With an odd side that ratio is not 1/2, and even
  // zero chroma comes out of it with rounding residue everywhere: the
  // shadow is one window, the whole image, keyed ROIs or not.
  const bool sub = params.chroma == jpeg::ChromaMode::k420;
  const bool odd = params.width % 2 != 0 || params.height % 2 != 0;
  if (sub && odd && ws.empty()) ws.push_back(Window{image, {}, {}});
  const auto decoded = [&](const Rect& r) {
    if (!sub) return r;
    if (odd) return image;
    return Rect::intersect(Rect{r.x - 16, r.y - 16, r.w + 32, r.h + 32}, image);
  };
  const std::vector<Rect> rects = merge_windows(ws, image, image, decoded);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    Window& w = ws[i];
    w.rect = rects[i];
    for (DeltaRoi& d : w.rois) {
      d.roi.x -= w.rect.x;
      d.roi.y -= w.rect.y;
    }
    w.px = jpeg::inverse_transform(build_delta_image(
        jpeg::CoefficientImage(w.rect.w, w.rect.h, params.components,
                               params.luma_qtable, params.chroma_qtable,
                               params.chroma),
        w.rois));
    w.rois.clear();
    // inverse_transform applies the +128 level shift; a shadow is a pure
    // difference signal centred at 0.
    for (int c = 0; c < 3; ++c) {
      Plane<float>& plane = w.px.component(c);
      exec::parallel_for(static_cast<std::size_t>(plane.height()),
                         [&](std::size_t y) {
                           for (float& v : plane.row(static_cast<int>(y)))
                             v -= 128.f;
                         });
    }
  }
  return ws;
}

}  // namespace

ProtectResult protect(const jpeg::CoefficientImage& original,
                      const std::vector<RoiPolicy>& policies) {
  ProtectResult result;
  result.perturbed = original;
  result.params.width = original.width();
  result.params.height = original.height();
  result.params.components = original.component_count();
  result.params.chroma = original.chroma_mode();
  result.params.luma_qtable = original.qtable(0);
  result.params.chroma_qtable = original.qtable(1);

  std::vector<Rect> aligned;
  const Rect grid{0, 0, original.blocks_w() * 8, original.blocks_h() * 8};
  // ROIs align to whole MCUs: 8 px for 4:4:4, 16 px for 4:2:0.
  const int mcu = original.mcu_pixels();
  for (const RoiPolicy& policy : policies) {
    const Rect rect = policy.rect.aligned_to(mcu, grid);
    require(!rect.empty(), "ROI policy rect is empty after alignment");
    for (const Rect& prev : aligned)
      require(!rect.intersects(prev),
              "aligned ROI rects overlap; split them disjointly first");
    aligned.push_back(rect);
  }

  for (std::size_t i = 0; i < policies.size(); ++i) {
    const RoiPolicy& policy = policies[i];
    const MatrixSet set = MatrixSet::derive(policy.key, policy.matrix_count);
    const PerturbParams params = params_for(policy.level);
    PerturbOutcome outcome = perturb_roi(result.perturbed, aligned[i], set,
                                         policy.scheme, params);
    ProtectedRoi roi;
    roi.id = static_cast<std::uint32_t>(i);
    roi.rect = aligned[i];
    roi.scheme = policy.scheme;
    roi.params = params;
    roi.matrix_id = policy.key.id();
    roi.matrix_count = policy.matrix_count;
    roi.zind = std::move(outcome.zind);
    roi.wind = std::move(outcome.wind);
    result.params.rois.push_back(std::move(roi));
  }
  return result;
}

jpeg::CoefficientImage recover(const jpeg::CoefficientImage& shared,
                               const PublicParameters& params,
                               const KeyRing& keys) {
  return recover_lossless(shared, params, {}, keys);
}

jpeg::CoefficientImage recover_lossless(
    const jpeg::CoefficientImage& transformed, const PublicParameters& params,
    const transform::Chain& chain, const KeyRing& keys) {
  // recover_roi finds the ROI blocks in the download through the chain's
  // geometry, so a download that contradicts it is rejected here. The fold
  // rejects moves of 4:2:0 images.
  require(transformed.component_count() == params.components &&
              transformed.chroma_mode() == params.chroma,
          "recover_lossless requires a download with the protected image's "
          "components and chroma");
  const transform::LosslessMap m = transform::fold_lossless(
      chain, params.width, params.height, transformed.subsampled());
  require(std::pair{transformed.width(), transformed.height()} ==
              transform::map_size(chain, params.width, params.height),
          "transform chain does not match the downloaded image size");

  // Perturbation moves with its blocks (Lemma III.1), so each keyed ROI is
  // recovered in place in the download, block by block where the chain put
  // it; every other block is the download's.
  jpeg::CoefficientImage out = transformed;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;  // not shared with this receiver
    require(params.roi_fits(roi.rect),
            "ROI rect outside the protected image's MCU grid");
    recover_roi(out, roi.rect, *set, roi.scheme, roi.params, roi.zind, &m);
  }
  return out;
}

YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys) {
  // Checked before any window is sized by the parameters.
  require(std::pair{transformed.width(), transformed.height()} ==
              transform::map_size(chain, params.width, params.height),
          "transform chain does not match the downloaded image size");
  require(params.components == 3 && params.width > 0 && params.height > 0 &&
              static_cast<std::uint64_t>(params.width) *
                      static_cast<std::uint64_t>(params.height) <=
                  jpeg::max_decode_pixels(),
          "pixel-domain recovery needs a 3-component image within the "
          "decode limit");
  std::vector<Window> ws = decode_shadow(params, keys);

  // Replay the PSP chain on each window, growing it by the step's
  // footprint. Requantization is not linear, so the shadow passes through
  // recompress steps unchanged (bounded error); identity moves nothing.
  int w = params.width, h = params.height;
  for (const transform::Step& s : chain) {
    if (s.kind == transform::Kind::kCropAligned)
      require(Rect{0, 0, w, h}.contains(s.rect), "crop rect outside image");
    const auto [ow, oh] = transform::map_size(s, w, h);
    if (s.kind != transform::Kind::kRecompress &&
        s.kind != transform::Kind::kIdentity) {
      const std::vector<Rect> reach = merge_windows(
          ws, Rect{0, 0, w, h}, Rect{0, 0, ow, oh},
          [&](const Rect& r) { return transform::footprint(s, r, w, h); });
      std::vector<Window> next;
      for (std::size_t i = 0; i < ws.size(); ++i)
        if (!reach[i].empty())  // a crop removed it
          next.push_back(Window{reach[i],
                                transform::apply(s, ws[i].px, ws[i].rect,
                                                 reach[i], w, h),
                                {}});
      ws = std::move(next);
    }
    w = ow;
    h = oh;
  }

  // The windows are disjoint, and the shadow is zero outside them.
  YccImage out = transformed;
  for (const Window& win : ws)
    for (int c = 0; c < 3; ++c) {
      Plane<float>& plane = out.component(c);
      const Plane<float>& s = win.px.component(c);
      exec::parallel_for(static_cast<std::size_t>(win.rect.h),
                         [&](std::size_t row) {
                           const int y = static_cast<int>(row);
                           float* dst =
                               plane.row(win.rect.y + y).data() + win.rect.x;
                           const std::span<const float> src = s.row(y);
                           for (std::size_t x = 0; x < src.size(); ++x)
                             dst[x] -= src[x];
                         });
    }
  return out;
}

}  // namespace puppies::core
