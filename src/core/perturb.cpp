#include "puppies/core/perturb.h"

#include <limits>

#include "puppies/common/error.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/lossless.h"
#include "puppies/transform/transform.h"

namespace puppies::core {

std::string_view to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNaive:
      return "PuPPIeS-N";
    case Scheme::kBase:
      return "PuPPIeS-B";
    case Scheme::kCompression:
      return "PuPPIeS-C";
    case Scheme::kZero:
      return "PuPPIeS-Z";
  }
  return "?";
}

std::unordered_set<std::uint64_t> PositionSet::lookup() const {
  std::unordered_set<std::uint64_t> set;
  set.reserve(entries_.size());
  for (const CoefPosition& p : entries_) set.insert(p.packed());
  return set;
}

void PositionSet::serialize(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const CoefPosition& p : entries_) {
    out.u8(p.component);
    out.u32(p.block);
    out.u8(p.coef);
  }
}

PositionSet PositionSet::parse(ByteReader& in) {
  PositionSet set;
  // Component, block index and coefficient: 6 bytes per entry on the wire.
  const std::uint32_t n = in.count(6);
  set.entries_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CoefPosition p;
    p.component = in.u8();
    p.block = in.u32();
    p.coef = in.u8();
    if (p.component > 2 || p.coef > 63) throw ParseError("bad coef position");
    set.add(p);
  }
  return set;
}

namespace {

/// AC delta for zig-zag index i of local block k under `scheme`.
int ac_delta(const MatrixSet& keys, const RangeMatrix& q, Scheme scheme,
             int i, int k) {
  const auto idx = static_cast<std::size_t>(i);
  const MatrixPair& pair = keys.for_block(k);
  switch (scheme) {
    case Scheme::kNaive:
    case Scheme::kBase:
      return pair.ac.p[idx];
    case Scheme::kCompression:
    case Scheme::kZero:
      return pair.ac.p[idx] % q[idx];
  }
  throw InvalidArgument("unknown scheme");
}

/// DC delta for local block index k under `scheme`. DC is perturbed in all
/// schemes and at all privacy levels.
int dc_delta(const MatrixSet& keys, Scheme scheme, int k) {
  if (scheme == Scheme::kNaive)
    return keys.pairs[0].ac.p[0];  // the naive weakness
  return keys.for_block(k).dc.p[static_cast<std::size_t>(k % 64)];
}

/// For C/Z the paper only perturbs coefficients the range matrix covers;
/// for N/B every coefficient is perturbed.
bool ac_perturbed(const RangeMatrix& q, Scheme scheme, int i) {
  if (scheme == Scheme::kNaive || scheme == Scheme::kBase) return true;
  return q[static_cast<std::size_t>(i)] > 1;
}

/// The one ROI block walk behind perturb_roi, recover_roi and
/// build_delta_image. For every coefficient `scheme` perturbs in the
/// MCU-aligned pixel rect `roi`, calls fn(slot, at, coef, delta, ring):
/// `at` is its position (component, ROI-local row-major block index k,
/// zig-zag index), `coef` the coefficient in the ROI's own orientation and
/// `delta` the key's entry for it in `ring`.
///
/// Without `place`, `img` holds the ROI at its own coordinates and must
/// contain it. With it, `img` is what the lossless chain folded into
/// `place` made of the protected image: ROI blocks inside place->source
/// are reached where place->d moved them (through jpeg::move_block and
/// back, or in place when d is the identity); blocks the crop removed are
/// skipped.
///
/// Block rows of all components run on the pool, each with its own Slot.
/// The returned slots are in walk order (components, then rows), so merging
/// them in order reproduces a serial walk at any lane count.
template <class Slot = char, class Fn>
std::vector<Slot> walk_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const transform::LosslessMap* place,
                           const MatrixSet& keys, Scheme scheme,
                           const PerturbParams& params, Fn&& fn) {
  require(!keys.pairs.empty(), "matrix set must not be empty");
  const RangeMatrix q = make_range_matrix(params);
  const int mcu = img.mcu_pixels();
  // Checked field by field, so no sum of a hostile rect's fields can
  // overflow; the grid checks below run in block units.
  require(roi.x >= 0 && roi.y >= 0 && roi.w > 0 && roi.h > 0 &&
              roi.x % mcu == 0 && roi.y % mcu == 0 && roi.w % mcu == 0 &&
              roi.h % mcu == 0,
          "ROI must be MCU-aligned (8 px for 4:4:4, 16 px for 4:2:0)");
  require(roi.w / 8 <= std::numeric_limits<int>::max() / (roi.h / 8),
          "ROI block count overflows its block index");
  const Dihedral d = place ? place->d : Dihedral{};

  // One lane per component: its ROI walk, the frame of protected blocks
  // `img` holds, and the part of the walk inside the frame.
  struct Lane {
    int c;
    Rect walk, frame, live;
    std::size_t first_row;
  };
  std::vector<Lane> lanes;
  std::size_t rows = 0;
  const int hmax = img.h_max(), vmax = img.v_max();
  // Pixels to a component's blocks: 4:2:0 chroma grids are half size in
  // both directions.
  const auto blocks = [](int px, int per_mcu, int max) {
    return px / (8 * max) * per_mcu;
  };
  for (int c = 0; c < img.component_count(); ++c) {
    const jpeg::Component& comp = img.component(c);
    const Rect walk{blocks(roi.x, comp.h, hmax), blocks(roi.y, comp.v, vmax),
                    blocks(roi.w, comp.h, hmax), blocks(roi.h, comp.v, vmax)};
    Rect frame{0, 0, comp.blocks_w, comp.blocks_h};
    if (place) {
      // Partial border blocks belong to the source too.
      const Rect& s = place->source;
      frame = Rect{blocks(s.x, comp.h, hmax), blocks(s.y, comp.v, vmax),
                   blocks(s.w + 8 * hmax - 1, comp.h, hmax),
                   blocks(s.h + 8 * vmax - 1, comp.v, vmax)};
      require(d.output_size(frame.w, frame.h) ==
                  std::pair{comp.blocks_w, comp.blocks_h},
              "image does not match the lossless placement");
    } else {
      require(frame.contains(walk), "ROI outside image block grid");
    }
    const Rect live = Rect::intersect(walk, frame);
    if (live.empty()) continue;
    lanes.push_back(Lane{c, walk, frame, live, rows});
    rows += static_cast<std::size_t>(live.h);
  }

  std::vector<Slot> slots(rows);
  exec::parallel_for(rows, [&](std::size_t row) {
    std::size_t at = 0;
    while (at + 1 < lanes.size() && row >= lanes[at + 1].first_row) ++at;
    const Lane& l = lanes[at];
    const auto c = static_cast<std::uint8_t>(l.c);
    jpeg::Component& comp = img.component(l.c);
    const int by = l.live.y + static_cast<int>(row - l.first_row);
    for (int bx = l.live.x; bx < l.live.right(); ++bx) {
      const int k = (by - l.walk.y) * l.walk.w + (bx - l.walk.x);
      const auto visit = [&](jpeg::CoefBlock& blk) {
        const auto b = static_cast<std::uint32_t>(k);
        fn(slots[row], CoefPosition{c, b, 0}, blk[0],
           dc_delta(keys, scheme, k), kDcRing);
        for (int i = 1; i < 64; ++i)
          if (ac_perturbed(q, scheme, i))
            fn(slots[row], CoefPosition{c, b, static_cast<std::uint8_t>(i)},
               blk[static_cast<std::size_t>(i)], ac_delta(keys, q, scheme, i, k),
               kAcRing);
      };
      const int fx = bx - l.frame.x, fy = by - l.frame.y;
      if (d.identity()) {
        visit(comp.block(fx, fy));
        continue;
      }
      const auto [dx, dy] = d.map(fx, fy, l.frame.w, l.frame.h);
      jpeg::CoefBlock& stored = comp.block(dx, dy);
      jpeg::CoefBlock blk{};
      jpeg::move_block(stored, d.inverse(), blk);
      visit(blk);
      jpeg::move_block(blk, d, stored);
    }
  });
  return slots;
}

}  // namespace

PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixPair& keys, Scheme scheme,
                           const PerturbParams& params) {
  return perturb_roi(img, roi, MatrixSet{{keys}}, scheme, params);
}

void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixPair& keys, Scheme scheme,
                 const PerturbParams& params, const PositionSet& zind) {
  recover_roi(img, roi, MatrixSet{{keys}}, scheme, params, zind);
}

PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixSet& keys, Scheme scheme,
                           const PerturbParams& params) {
  // Each block row appends its ZInd/WInd entries to its own slot.
  const std::vector<PerturbOutcome> rows = walk_roi<PerturbOutcome>(
      img, roi, nullptr, keys, scheme, params,
      [&](PerturbOutcome& local, CoefPosition at, std::int16_t& coef,
          int delta, Ring ring) {
        // Algorithm 2: PuPPIeS-Z leaves zero ACs alone and logs new zeros.
        const bool zero_ac = scheme == Scheme::kZero && at.coef > 0;
        if (zero_ac && coef == 0) return;
        const auto [v, wrapped] = wrap_add(coef, delta, ring);
        coef = static_cast<std::int16_t>(v);
        if (wrapped) local.wind.add(at);
        if (zero_ac && v == 0) local.zind.add(at);
      });
  PerturbOutcome outcome;
  for (const PerturbOutcome& local : rows) {
    outcome.zind.append(local.zind);
    outcome.wind.append(local.wind);
  }
  return outcome;
}

void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixSet& keys, Scheme scheme,
                 const PerturbParams& params, const PositionSet& zind,
                 const transform::LosslessMap* place) {
  const std::unordered_set<std::uint64_t> zeros = zind.lookup();
  walk_roi(img, roi, place, keys, scheme, params,
           [&](char, CoefPosition at, std::int16_t& coef, int delta,
               Ring ring) {
             // A zero AC that ZInd does not list is an original zero.
             if (scheme == Scheme::kZero && at.coef > 0 && coef == 0 &&
                 !zeros.contains(at.packed()))
               return;
             coef = static_cast<std::int16_t>(wrap_sub(coef, delta, ring));
           });
}

jpeg::CoefficientImage build_delta_image(
    const jpeg::CoefficientImage& geometry, const std::vector<DeltaRoi>& rois) {
  jpeg::CoefficientImage delta(geometry.width(), geometry.height(),
                               geometry.component_count(), geometry.qtable(0),
                               geometry.qtable(1), geometry.chroma_mode());
  for (int c = 0; c < geometry.component_count(); ++c)
    delta.component(c).quant_index = geometry.component(c).quant_index;

  // ROIs are applied one after another: deltas accumulate where they meet.
  for (const DeltaRoi& d : rois) {
    require(d.scheme != Scheme::kZero,
            "PuPPIeS-Z deltas depend on the original coefficients and cannot "
            "feed pixel-domain shadow recovery (see DESIGN.md)");
    const std::unordered_set<std::uint64_t> wraps =
        d.wind ? d.wind->lookup() : std::unordered_set<std::uint64_t>{};
    walk_roi(delta, d.roi, nullptr, d.keys, d.scheme, d.params,
             [&](char, CoefPosition at, std::int16_t& coef, int raw,
                 Ring ring) {
               // A wrapped coefficient moved by delta - ring size.
               const int moved =
                   wraps.contains(at.packed()) ? raw - ring.size() : raw;
               coef = static_cast<std::int16_t>(coef + moved);
             });
  }
  return delta;
}

}  // namespace puppies::core
