#include <gtest/gtest.h>

#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"

namespace puppies::psp {
namespace {

struct Scenario {
  synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 11, 128, 96);
  jpeg::CoefficientImage original =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
  SecretKey key = SecretKey::from_label("psp/roi");
  core::ProtectResult shared = core::protect(
      original, {core::RoiPolicy{Rect{16, 16, 48, 32}, key,
                                 core::Scheme::kCompression,
                                 core::PrivacyLevel::kMedium}});
};

TEST(Psp, UploadDownloadRoundTrip) {
  Scenario s;
  PspService psp;
  const std::string id =
      psp.upload(jpeg::serialize(s.shared.perturbed),
                 s.shared.params.serialize());
  const Download d = psp.download(id);
  EXPECT_TRUE(d.chain.empty());
  EXPECT_EQ(jpeg::parse(d.jfif), s.shared.perturbed);
  EXPECT_EQ(core::PublicParameters::parse(d.public_params), s.shared.params);
  EXPECT_EQ(psp.image_count(), 1u);
  EXPECT_GT(psp.stored_bytes(id), 0u);
}

TEST(Psp, RejectsGarbageUploads) {
  PspService psp;
  EXPECT_THROW(psp.upload(Bytes{1, 2, 3}, Bytes{}), ParseError);
}

TEST(Psp, RejectsARestartIntervalOutOfRange) {
  for (const int restart : {-1, -5, 0x10000}) {
    PspConfig config;
    config.restart_interval = restart;
    EXPECT_THROW(PspService{config}, InvalidArgument) << restart;
  }
}

TEST(Psp, UnknownIdThrows) {
  PspService psp;
  EXPECT_THROW(psp.download("img-404"), InvalidArgument);
  EXPECT_THROW(psp.stored_bytes("img-404"), InvalidArgument);
}

TEST(Psp, UnknownIdOnApplyTransformThrows) {
  Scenario s;
  PspService psp;
  EXPECT_THROW(psp.apply_transform("img-404", {transform::rotate(180)}),
               InvalidArgument);
  // A real upload does not make foreign ids resolvable.
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  EXPECT_THROW(psp.apply_transform(id + "x", {transform::rotate(180)}),
               InvalidArgument);
}

TEST(Psp, CoefficientsModeRejectsEveryLossyStepKind) {
  Scenario s;
  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  const std::vector<transform::Chain> lossy_chains = {
      {transform::box_blur()},
      {transform::recompress(50)},
      // A lossless prefix does not rescue a lossy tail.
      {transform::rotate(180), transform::scale(64, 48)},
  };
  for (const transform::Chain& chain : lossy_chains) {
    EXPECT_THROW(
        psp.apply_transform(id, chain, DeliveryMode::kCoefficients),
        InvalidArgument)
        << chain[chain.size() - 1].to_string();
    // The failed request must not corrupt serving state: the original
    // untransformed image still downloads byte-identically.
    const Download d = psp.download(id);
    EXPECT_TRUE(d.chain.empty());
    EXPECT_EQ(jpeg::parse(d.jfif), s.shared.perturbed);
  }
}

TEST(Psp, LosslessTransformEndToEnd) {
  Scenario s;
  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  const transform::Chain chain{transform::rotate(180)};
  psp.apply_transform(id, chain, DeliveryMode::kCoefficients);

  const Download d = psp.download(id);
  ASSERT_EQ(d.chain.size(), 1u);
  core::KeyRing keys;
  keys.add(s.key);
  const jpeg::CoefficientImage recovered = core::recover_lossless(
      jpeg::parse(d.jfif), core::PublicParameters::parse(d.public_params),
      d.chain, keys);
  EXPECT_EQ(recovered, transform::apply_lossless(chain, s.original));
}

TEST(Psp, PixelTransformLinearDelivery) {
  // The paper's Fig. 16 model: a PSP that scales in float and never clamps.
  // The PSP serves JFIF only, so the test plays that PSP on the raw download.
  Scenario s;
  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  const transform::Chain chain{transform::scale(64, 48)};
  const Download d = psp.download(id);
  const YccImage scaled =
      transform::apply(chain, jpeg::inverse_transform(jpeg::parse(d.jfif)));
  EXPECT_EQ(scaled.width(), 64);

  core::KeyRing keys;
  keys.add(s.key);
  const YccImage recovered = core::recover_pixels(
      scaled, core::PublicParameters::parse(d.public_params), chain, keys);
  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(s.original));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(recovered)),
                 to_gray(ycc_to_rgb(reference))),
            45.0);
}

TEST(Psp, ClampedReencodeDeliversValidJpeg) {
  Scenario s;
  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  const transform::Chain chain{transform::scale(64, 48)};
  psp.apply_transform(id, chain, DeliveryMode::kClampedReencode, 80);
  const Download d = psp.download(id);
  const jpeg::CoefficientImage img = jpeg::parse(d.jfif);
  EXPECT_EQ(img.width(), 64);
  EXPECT_EQ(img.height(), 48);
}

TEST(Psp, CoefficientsModeRequiresLosslessChain) {
  Scenario s;
  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(s.shared.perturbed),
                                    s.shared.params.serialize());
  EXPECT_THROW(psp.apply_transform(id, {transform::scale(64, 48)},
                                   DeliveryMode::kCoefficients),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Serving encodes: every coefficient-domain result is one serialize() of the
// transformed coefficients under the serving config.

Bytes upload_bytes(jpeg::HuffmanMode huffman, int restart_interval) {
  jpeg::EncodeOptions eo;
  eo.huffman = huffman;
  eo.restart_interval = restart_interval;
  return jpeg::compress(
      synth::generate(synth::Dataset::kPascal, 7, 96, 80).image, 75, eo);
}

TEST(PspServing, IdentityChainDownloadEqualsUpload) {
  // A standard-table restart-64 upload is a serialize() fixpoint under the
  // same settings, so the empty chain serves the upload's own bytes.
  PspConfig cfg;
  cfg.huffman = jpeg::HuffmanMode::kStandard;
  cfg.restart_interval = 64;
  PspService psp(cfg);
  const Bytes upload = upload_bytes(cfg.huffman, cfg.restart_interval);
  const std::string id = psp.upload(upload, {});
  psp.apply_transform(id, {}, DeliveryMode::kCoefficients);
  EXPECT_EQ(psp.download(id).jfif, upload);
}

TEST(PspServing, LosslessDownloadIsSerializeOfTheMovedCoefficients) {
  const transform::Chain chain{transform::flip_v()};
  for (const jpeg::HuffmanMode huffman :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    PspConfig cfg;
    cfg.huffman = huffman;
    cfg.cache_bytes = 0;
    jpeg::EncodeOptions eo;
    eo.huffman = huffman;
    eo.restart_interval = cfg.restart_interval;
    const Bytes upload = upload_bytes(huffman, cfg.restart_interval);
    PspService psp(cfg);
    const std::string id = psp.upload(upload, {});
    psp.apply_transform(id, chain, DeliveryMode::kCoefficients);
    EXPECT_EQ(psp.download(id).jfif,
              jpeg::serialize(
                  transform::apply_lossless(chain, jpeg::parse(upload)), eo))
        << "huffman mode " << static_cast<int>(huffman);
  }
}

// A serving-path download whose encode has no usable ScanIndex must bump
// psp.codec.scanindex_rebuilds, and the counter is in the same registry JSON
// `puppies store stats --json` embeds.
TEST(PspServing, ShapeMismatchedIndexOnServingPathBumpsRebuildCounter) {
  PspService psp;
  const std::string id =
      psp.upload(upload_bytes(jpeg::HuffmanMode::kOptimized, 64), {});
  const std::uint64_t before =
      metrics::counter("psp.codec.scanindex_rebuilds").value();
  // rotate(90) changes the coefficient grid's shape, so no index matching
  // the upload parse can cover the transformed image: the serving encode
  // must rebuild.
  psp.apply_transform(id, {transform::rotate(90)},
                      DeliveryMode::kCoefficients);
  EXPECT_FALSE(psp.download(id).jfif.empty());
  EXPECT_GT(metrics::counter("psp.codec.scanindex_rebuilds").value(), before);
  EXPECT_NE(metrics::dump_json().find("psp.codec.scanindex_rebuilds"),
            std::string::npos);
}

TEST(SecureChannel, DeliversRingsPerReceiver) {
  const SecretKey face = SecretKey::from_label("alice/face");
  const SecretKey plate = SecretKey::from_label("alice/plate");
  SecureChannel channel;
  channel.send_matrices("bob", face);
  channel.send_matrices("bob", plate);
  channel.send_matrices("carol", face);

  const core::KeyRing bob = channel.ring_for("bob");
  EXPECT_EQ(bob.size(), 2u);
  EXPECT_NE(bob.find(face.id()), nullptr);
  EXPECT_NE(bob.find(plate.id()), nullptr);

  const core::KeyRing carol = channel.ring_for("carol");
  EXPECT_EQ(carol.size(), 1u);
  EXPECT_EQ(carol.find(plate.id()), nullptr);

  EXPECT_EQ(channel.private_bytes("bob"), 2u * 176u);
  EXPECT_EQ(channel.private_bytes("carol"), 176u);
  EXPECT_EQ(channel.private_bytes("mallory"), 0u);
  EXPECT_EQ(channel.ring_for("mallory").size(), 0u);
}

TEST(EndToEnd, AliceBobCarolPersonalizedSharing) {
  // The motivating example (Fig. 3): two ROIs, two receiver groups, each
  // sees only what they hold keys for.
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kCaltech, 5, 256, 192);
  const jpeg::CoefficientImage original =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
  const SecretKey einstein_key = SecretKey::from_label("einstein");
  const SecretKey chaplin_key = SecretKey::from_label("chaplin");

  const core::ProtectResult shared = core::protect(
      original,
      {core::RoiPolicy{Rect{32, 32, 48, 48}, einstein_key},
       core::RoiPolicy{Rect{144, 96, 48, 48}, chaplin_key}});

  PspService psp;
  const std::string id = psp.upload(jpeg::serialize(shared.perturbed),
                                    shared.params.serialize());
  SecureChannel channel;
  channel.send_matrices("einstein-friend", einstein_key);
  channel.send_matrices("chaplin-friend", chaplin_key);

  const Download d = psp.download(id);
  const core::PublicParameters params =
      core::PublicParameters::parse(d.public_params);
  const jpeg::CoefficientImage downloaded = jpeg::parse(d.jfif);

  const jpeg::CoefficientImage einstein_view = core::recover(
      downloaded, params, channel.ring_for("einstein-friend"));
  const jpeg::CoefficientImage chaplin_view =
      core::recover(downloaded, params, channel.ring_for("chaplin-friend"));

  // Each view recovers exactly its own ROI.
  const Rect e_br = jpeg::CoefficientImage::pixel_to_block_rect(
      params.rois[0].rect);
  const Rect c_br = jpeg::CoefficientImage::pixel_to_block_rect(
      params.rois[1].rect);
  EXPECT_EQ(einstein_view.component(0).block(e_br.x, e_br.y),
            original.component(0).block(e_br.x, e_br.y));
  EXPECT_NE(einstein_view.component(0).block(c_br.x, c_br.y),
            original.component(0).block(c_br.x, c_br.y));
  EXPECT_EQ(chaplin_view.component(0).block(c_br.x, c_br.y),
            original.component(0).block(c_br.x, c_br.y));
  EXPECT_NE(chaplin_view.component(0).block(e_br.x, e_br.y),
            original.component(0).block(e_br.x, e_br.y));
}

}  // namespace
}  // namespace puppies::psp
