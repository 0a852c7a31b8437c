#include "puppies/core/params.h"

#include "puppies/jpeg/codec.h"

namespace puppies::core {

namespace {
constexpr std::uint32_t kMagic = 0x50555050;  // "PUPP"
constexpr std::uint16_t kVersion = 2;

void write_qtable(ByteWriter& out, const jpeg::QuantTable& t) {
  for (auto q : t.q) out.u16(q);
}

jpeg::QuantTable read_qtable(ByteReader& in) {
  jpeg::QuantTable t;
  for (auto& q : t.q) q = in.u16();
  return t;
}
}  // namespace

void ProtectedRoi::serialize(ByteWriter& out) const {
  out.u32(id);
  out.i32(rect.x);
  out.i32(rect.y);
  out.i32(rect.w);
  out.i32(rect.h);
  out.u8(static_cast<std::uint8_t>(scheme));
  out.i32(params.mR);
  out.i32(params.K);
  out.str(matrix_id);
  out.i32(matrix_count);
  zind.serialize(out);
  wind.serialize(out);
}

ProtectedRoi ProtectedRoi::parse(ByteReader& in) {
  ProtectedRoi roi;
  roi.id = in.u32();
  roi.rect.x = in.i32();
  roi.rect.y = in.i32();
  roi.rect.w = in.i32();
  roi.rect.h = in.i32();
  const std::uint8_t scheme = in.u8();
  if (scheme > static_cast<std::uint8_t>(Scheme::kZero))
    throw ParseError("bad scheme");
  roi.scheme = static_cast<Scheme>(scheme);
  roi.params.mR = in.i32();
  roi.params.K = in.i32();
  roi.matrix_id = in.str();
  roi.matrix_count = in.i32();
  if (roi.matrix_count < 1 || roi.matrix_count > 4096)
    throw ParseError("bad matrix count");
  roi.zind = PositionSet::parse(in);
  roi.wind = PositionSet::parse(in);
  return roi;
}

Bytes PublicParameters::serialize() const {
  ByteWriter out;
  out.u32(kMagic);
  out.u16(kVersion);
  out.i32(width);
  out.i32(height);
  out.u8(static_cast<std::uint8_t>(components));
  out.u8(static_cast<std::uint8_t>(chroma));
  write_qtable(out, luma_qtable);
  write_qtable(out, chroma_qtable);
  out.u32(static_cast<std::uint32_t>(rois.size()));
  for (const ProtectedRoi& r : rois) r.serialize(out);
  return out.take();
}

PublicParameters PublicParameters::parse(std::span<const std::uint8_t> data) {
  ByteReader in(data);
  if (in.u32() != kMagic) throw ParseError("bad public-parameter magic");
  if (in.u16() != kVersion) throw ParseError("unsupported version");
  PublicParameters p;
  p.width = in.i32();
  p.height = in.i32();
  // The same pixel bound the JPEG parser applies to an SOF header.
  if (p.width <= 0 || p.height <= 0 ||
      static_cast<std::uint64_t>(p.width) *
              static_cast<std::uint64_t>(p.height) >
          jpeg::max_decode_pixels())
    throw ParseError("bad public-parameter geometry");
  p.components = in.u8();
  if (p.components != 1 && p.components != 3)
    throw ParseError("bad component count");
  const std::uint8_t chroma = in.u8();
  if (chroma > static_cast<std::uint8_t>(jpeg::ChromaMode::k420))
    throw ParseError("bad chroma mode");
  p.chroma = static_cast<jpeg::ChromaMode>(chroma);
  p.luma_qtable = read_qtable(in);
  p.chroma_qtable = read_qtable(in);
  // Smallest ROI on the wire: id, rect, scheme, mR, K, an empty matrix id,
  // matrix count and two empty position sets.
  const std::uint32_t n = in.count(4 + 16 + 1 + 8 + 4 + 4 + 4 + 4);
  p.rois.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    p.rois.push_back(ProtectedRoi::parse(in));
    if (!p.roi_fits(p.rois.back().rect))
      throw ParseError("ROI rect outside the image's MCU grid");
  }
  return p;
}

bool PublicParameters::roi_fits(const Rect& r) const {
  const int m = components == 3 && chroma == jpeg::ChromaMode::k420 ? 16 : 8;
  // In whole MCUs, where no sum of hostile fields can overflow.
  const auto mcus = [m](int px) { return px / m + (px % m != 0); };
  return r.x % m == 0 && r.y % m == 0 && r.w % m == 0 && r.h % m == 0 &&
         Rect{0, 0, mcus(width), mcus(height)}.contains(
             Rect{r.x / m, r.y / m, r.w / m, r.h / m});
}

std::size_t PublicParameters::byte_size_without_zind() const {
  std::size_t total = byte_size();
  for (const ProtectedRoi& r : rois) {
    // 4-byte count stays; per-entry payload (6 bytes on the wire) goes.
    total -= r.zind.size() * 6;
  }
  return total;
}

const ProtectedRoi* PublicParameters::find_roi(std::uint32_t id) const {
  for (const ProtectedRoi& r : rois)
    if (r.id == id) return &r;
  return nullptr;
}

KeyRing::Entry* KeyRing::lookup(const std::string& id) {
  for (Entry& e : entries_)
    if (e.id == id) return &e;
  return nullptr;
}

const KeyRing::Entry* KeyRing::lookup(const std::string& id) const {
  return const_cast<KeyRing*>(this)->lookup(id);
}

std::string KeyRing::add(const SecretKey& key) {
  std::string id = key.id();
  if (Entry* e = lookup(id)) {
    e->key = key;
    e->set = MatrixSet::derive(key, 1);
  } else {
    entries_.push_back(Entry{id, key, MatrixSet::derive(key, 1)});
  }
  return id;
}

void KeyRing::add(const std::string& id, const MatrixSet& set) {
  require(!set.pairs.empty(), "matrix set must not be empty");
  if (Entry* e = lookup(id)) {
    e->key.reset();
    e->set = set;
  } else {
    entries_.push_back(Entry{id, std::nullopt, set});
  }
}

void KeyRing::add(const std::string& id, const MatrixPair& pair) {
  add(id, MatrixSet{{pair}});
}

std::optional<MatrixSet> KeyRing::find_set(const std::string& id,
                                           int count) const {
  const Entry* e = lookup(id);
  if (e == nullptr) return std::nullopt;
  if (e->key.has_value()) return MatrixSet::derive(*e->key, count);
  if (e->set.count() == count) return e->set;
  return std::nullopt;  // raw material of the wrong cardinality
}

const MatrixPair* KeyRing::find(const std::string& id) const {
  const Entry* e = lookup(id);
  return e == nullptr ? nullptr : &e->set.pairs.front();
}

}  // namespace puppies::core
