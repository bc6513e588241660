// Unit tests for the ML substrate: LR model, training operators, metrics,
// FedAvg.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "common/det_hash.h"
#include "common/rng.h"
#include "data/synth_avazu.h"
#include "golden_digest.h"
#include "ml/fedavg.h"
#include "ml/lr_model.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "reference_codec.h"

namespace simdc::ml {
namespace {

data::Example MakeExample(std::vector<std::uint32_t> features, float label) {
  data::Example e;
  e.features = std::move(features);
  e.label = label;
  return e;
}

// ---------- LrModel ----------

TEST(LrModelTest, ZeroModelPredictsHalf) {
  LrModel model(16);
  EXPECT_DOUBLE_EQ(model.Predict(MakeExample({1, 2}, 1)), 0.5);
}

TEST(LrModelTest, ScoreSumsActiveWeights) {
  LrModel model(8);
  model.weights()[2] = 1.0f;
  model.weights()[5] = -0.5f;
  model.bias() = 0.25f;
  EXPECT_NEAR(model.Score(MakeExample({2, 5}, 0)), 0.75, 1e-6);
}

TEST(LrModelTest, PredictIsSigmoidOfScore) {
  LrModel model(4);
  model.bias() = 2.0f;
  EXPECT_NEAR(model.Predict(MakeExample({}, 0)), 1.0 / (1.0 + std::exp(-2.0)),
              1e-9);
}

TEST(LrModelTest, SerializationRoundTrip) {
  LrModel model(32);
  model.bias() = 0.125f;
  for (std::uint32_t i = 0; i < 32; ++i) {
    model.weights()[i] = static_cast<float>(i) * 0.25f - 3.0f;
  }
  const auto bytes = model.ToBytes();
  EXPECT_EQ(bytes.size(), model.SerializedSize());
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 32u);
  EXPECT_EQ(restored->bias(), model.bias());
  EXPECT_NEAR(restored->DistanceTo(model), 0.0, 1e-12);
}

TEST(LrModelTest, FromBytesRejectsGarbage) {
  EXPECT_FALSE(LrModel::FromBytes(std::vector<std::byte>(3)).ok());
  // Truncated payload.
  LrModel model(16);
  auto bytes = model.ToBytes();
  bytes.pop_back();
  EXPECT_FALSE(LrModel::FromBytes(bytes).ok());
}

// ---------- Payload codecs ----------

LrModel RampModel(std::uint32_t dim) {
  LrModel model(dim);
  model.bias() = 0.375f;
  for (std::uint32_t i = 0; i < dim; ++i) {
    model.weights()[i] = static_cast<float>(i) * 0.03125f - 1.0f;
  }
  return model;
}

TEST(LrModelCodecTest, Fp32CodecIsTheHistoricalFormat) {
  const LrModel model = RampModel(24);
  // The default ToBytes, the explicit fp32 codec and EncodeTo all produce
  // the same bytes — the bit-compat contract with pre-codec blobs.
  const auto legacy = model.ToBytes();
  EXPECT_EQ(legacy, model.ToBytes(PayloadCodec::kFp32));
  std::vector<std::byte> scratch(model.EncodedSize(PayloadCodec::kFp32));
  model.EncodeTo(scratch, PayloadCodec::kFp32);
  EXPECT_EQ(legacy, scratch);
  EXPECT_EQ(legacy.size(), model.SerializedSize());
}

TEST(LrModelCodecTest, Fp16RoundTrip) {
  const LrModel model = RampModel(48);
  const auto bytes = model.ToBytes(PayloadCodec::kFp16);
  EXPECT_EQ(bytes.size(), model.EncodedSize(PayloadCodec::kFp16));
  EXPECT_LT(bytes.size(), model.EncodedSize(PayloadCodec::kFp32));
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 48u);
  EXPECT_EQ(restored->bias(), model.bias());  // bias stays fp32
  for (std::uint32_t i = 0; i < 48; ++i) {
    // RampModel weights are multiples of 2^-5 in [-1, 0.5): exactly
    // representable in half precision, so the round trip is lossless.
    EXPECT_EQ(restored->weights()[i], model.weights()[i]) << i;
  }
}

TEST(LrModelCodecTest, Fp16RoundsToNearestEven) {
  LrModel model(2);
  // In [1, 2) the half-precision step is 2^-10. Both values below sit
  // exactly halfway between representable halves, so round-to-nearest-even
  // picks the even mantissa each time: down to 1.0 (mantissa 0), up to
  // 1 + 2^-9 (mantissa 2).
  model.weights()[0] = 1.0f + std::ldexp(1.0f, -11);
  model.weights()[1] = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kFp16));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->weights()[0], 1.0f);
  EXPECT_EQ(restored->weights()[1], 1.0f + std::ldexp(1.0f, -9));
}

// Encode a single weight through the fp16 codec and return the raw half
// bit pattern (the last two payload bytes of a dim-1 blob).
std::uint16_t EncodeHalf(float w) {
  LrModel model(1);
  model.weights()[0] = w;
  const auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::uint16_t h = 0;
  std::memcpy(&h, bytes.data() + bytes.size() - sizeof(h), sizeof(h));
  return h;
}

// Decode a raw half bit pattern through the fp16 codec.
float DecodeHalf(std::uint16_t h) {
  LrModel model(1);
  auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::memcpy(bytes.data() + bytes.size() - sizeof(h), &h, sizeof(h));
  auto restored = LrModel::FromBytes(bytes);
  EXPECT_TRUE(restored.ok());
  return restored->weights()[0];
}

TEST(LrModelCodecTest, Fp16OverflowSaturatesToInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  // Finite fp32 values beyond the half range must become half infinity
  // with the sign intact — never NaN or a sign flip.
  EXPECT_EQ(DecodeHalf(EncodeHalf(100000.0f)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(131072.0f)), inf);  // 2^17
  EXPECT_EQ(DecodeHalf(EncodeHalf(-100000.0f)), -inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(3.0e38f)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(inf)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(DecodeHalf(EncodeHalf(std::nanf("")))));
  // Max finite half survives; the first value that ties toward 2^16
  // rounds up to infinity (ties-to-even picks the even = overflow side).
  EXPECT_EQ(DecodeHalf(EncodeHalf(65504.0f)), 65504.0f);
  EXPECT_EQ(DecodeHalf(EncodeHalf(65519.0f)), 65504.0f);
  EXPECT_EQ(DecodeHalf(EncodeHalf(65520.0f)), inf);
}

TEST(LrModelCodecTest, Fp16SubnormalRoundTrip) {
  // Every subnormal half is mant/2^10 * 2^-14 = mant * 2^-24; those values
  // must round-trip exactly through encode and decode.
  for (std::uint32_t mant : {1u, 2u, 3u, 0x200u, 0x201u, 0x3FFu}) {
    const float value = std::ldexp(static_cast<float>(mant), -24);
    EXPECT_EQ(DecodeHalf(static_cast<std::uint16_t>(mant)), value) << mant;
    EXPECT_EQ(EncodeHalf(value), mant) << mant;
    EXPECT_EQ(EncodeHalf(-value),
              static_cast<std::uint16_t>(0x8000u | mant)) << mant;
  }
  // 2^-15 (pattern 0x0200) decoded at full value, not half of it.
  EXPECT_EQ(DecodeHalf(0x0200), std::ldexp(1.0f, -15));
  // Underflow boundary: below 2^-25 flushes to zero, the 2^-25 tie goes
  // to even (zero), and anything past the tie rounds up to 2^-24.
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -26)), 0u);
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -25)), 0u);
  EXPECT_EQ(EncodeHalf(std::ldexp(1.5f, -25)), 1u);
  // Smallest normal half boundary from both sides.
  EXPECT_EQ(DecodeHalf(0x0400), std::ldexp(1.0f, -14));
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -14)), 0x0400u);
}

#if defined(__FLT16_MAX__)
// With a native _Float16 available, check the codec against the hardware /
// soft-float reference over every half bit pattern (decode) and over the
// decoded set re-encoded (encode), so the two directions agree bit-for-bit
// with IEEE 754 round-to-nearest-even.
TEST(LrModelCodecTest, Fp16MatchesNativeReferenceExhaustively) {
  const std::uint32_t n = 1u << 16;
  LrModel model(n);
  auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::byte* payload = bytes.data() + (bytes.size() - n * sizeof(std::uint16_t));
  for (std::uint32_t h = 0; h < n; ++h) {
    const auto v = static_cast<std::uint16_t>(h);
    std::memcpy(payload + h * sizeof(v), &v, sizeof(v));
  }
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  for (std::uint32_t h = 0; h < n; ++h) {
    const auto v = static_cast<std::uint16_t>(h);
    _Float16 ref;
    std::memcpy(&ref, &v, sizeof(v));
    const float expect = static_cast<float>(ref);
    const float got = restored->weights()[h];
    if (std::isnan(expect)) {
      ASSERT_TRUE(std::isnan(got)) << "pattern " << h;
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(expect))
        << "pattern " << h;
    // Decoded halves are exactly representable, so re-encoding must be the
    // identity on the bit pattern.
    ASSERT_EQ(EncodeHalf(expect), v) << "pattern " << h;
  }
  // Encode direction on values that are NOT exact halves: a deterministic
  // strided sweep of fp32 bit patterns against the native cast.
  for (std::uint32_t bits = 0; bits < 0xFF000000u; bits += 0x000F4243u) {
    const float f = std::bit_cast<float>(bits);
    const auto got = EncodeHalf(f);
    if (std::isnan(f)) {
      // The codec canonicalizes NaN payloads; only NaN-ness must survive.
      ASSERT_TRUE((got & 0x7C00u) == 0x7C00u && (got & 0x03FFu) != 0)
          << "fp32 bits " << bits;
      continue;
    }
    const auto want = std::bit_cast<std::uint16_t>(static_cast<_Float16>(f));
    ASSERT_EQ(got, want) << "fp32 bits " << bits;
  }
}
#endif

TEST(LrModelCodecTest, Int8NonFiniteWeightsEncodeSafely) {
  LrModel model(4);
  model.weights()[0] = std::nanf("");
  model.weights()[1] = std::numeric_limits<float>::infinity();
  model.weights()[2] = -std::numeric_limits<float>::infinity();
  model.weights()[3] = 0.5f;
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kInt8));
  ASSERT_TRUE(restored.ok());
  // NaN maps to zero, infinities saturate, and the finite weight sets the
  // scale (so it survives at full precision) instead of being crushed by inf.
  EXPECT_EQ(restored->weights()[0], 0.0f);
  EXPECT_NEAR(restored->weights()[1], 0.5f, 1e-6);   // +127 * (0.5/127)
  EXPECT_NEAR(restored->weights()[2], -0.5f, 1e-6);  // -127 * (0.5/127)
  EXPECT_NEAR(restored->weights()[3], 0.5f, 1e-6);
}

TEST(LrModelCodecTest, Int8RoundTrip) {
  const LrModel model = RampModel(64);
  const auto bytes = model.ToBytes(PayloadCodec::kInt8);
  EXPECT_EQ(bytes.size(), model.EncodedSize(PayloadCodec::kInt8));
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 64u);
  EXPECT_EQ(restored->bias(), model.bias());
  // Symmetric per-tensor quantization: error bounded by half a step.
  float max_abs = 0.0f;
  for (float w : model.weights()) max_abs = std::max(max_abs, std::abs(w));
  const float step = max_abs / 127.0f;
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(restored->weights()[i], model.weights()[i], step / 2 + 1e-7)
        << i;
  }
  // The extreme weight hits quantization level ±127 and survives exactly.
  EXPECT_NEAR(restored->weights()[0], -1.0f, 1e-6);
}

TEST(LrModelCodecTest, Int8AllZeroWeightsUsesZeroScale) {
  LrModel model(8);
  model.bias() = 2.5f;
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kInt8));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->bias(), 2.5f);
  for (float w : restored->weights()) EXPECT_EQ(w, 0.0f);
}

// ---------- int8 sweep vectors ----------

/// The shapes of weight vector the int8 quantizer is checked on.
enum class Int8Family {
  /// Finite weights whose largest magnitude is 2^-100 to 2^100 (about
  /// 1e-30 to 1e30), spread below it so every code from 0 to 127 occurs;
  /// one vector in eight spreads over the whole range.
  kMagnitudes,
  /// kMagnitudes with ±0, subnormals, ±inf and NaNs (quiet, signaling,
  /// negative) mixed in.
  kSpecials,
  /// A power-of-two scale 2^e (max |w| = 127·2^e, e from -140 to 100) and
  /// weights at exact half-steps (k + 0.5)·2^e and one ulp either side.
  kHalfSteps,
  /// max |w| below 127·FLT_MIN, so the scale is subnormal (or 0): there
  /// |w|/scale reaches about 190 and only the clamp keeps codes in range.
  kSubnormalScale,
  /// ±0 only: the scale is 0 and every code is 0.
  kAllZero,
  /// ±inf and NaNs only, with some ±0: every code is 0 or ±127.
  kAllNonFinite,
};
constexpr Int8Family kInt8Families[] = {
    Int8Family::kMagnitudes, Int8Family::kSpecials,
    Int8Family::kHalfSteps,  Int8Family::kSubnormalScale,
    Int8Family::kAllZero,    Int8Family::kAllNonFinite};

/// Every vector tail, 0 to 67 weights, and durable_churn's dimension.
std::vector<std::size_t> Int8SweepDims() {
  std::vector<std::size_t> dims;
  for (std::size_t n = 0; n <= 67; ++n) dims.push_back(n);
  dims.push_back(2048);
  return dims;
}

float WithRandomSign(float x, Rng& rng) { return (rng() & 1) != 0 ? -x : x; }

/// A finite weight of magnitude in [2^exponent, 2^(exponent+1)): a random
/// 24-bit mantissa scaled by ldexp, rounded only below FLT_MIN.
float RandomMagnitude(int exponent, Rng& rng) {
  const auto mantissa = static_cast<float>((rng() & 0x7FFFFF) | 0x800000);
  return WithRandomSign(std::ldexp(mantissa, exponent - 23), rng);
}

float RandomNonFinite(Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  switch (rng() % 5) {
    case 0: return kInf;
    case 1: return -kInf;
    case 2: return std::numeric_limits<float>::quiet_NaN();
    case 3: return std::bit_cast<float>(std::uint32_t{0x7F800001});
    default: return std::bit_cast<float>(std::uint32_t{0xFFC00000});
  }
}

float RandomSpecial(Rng& rng) {
  switch (rng() % 3) {
    case 0: return WithRandomSign(0.0f, rng);
    case 1: {  // a subnormal
      const auto bits = static_cast<std::uint32_t>(1 + rng() % 0x7FFFFF);
      return WithRandomSign(std::bit_cast<float>(bits), rng);
    }
    default: return RandomNonFinite(rng);
  }
}

std::vector<float> Int8SweepVector(Int8Family family, std::size_t n,
                                   Rng& rng) {
  std::vector<float> w(n);
  switch (family) {
    case Int8Family::kMagnitudes:
    case Int8Family::kSpecials: {
      const int top = static_cast<int>(rng() % 201) - 100;
      const int spread = rng() % 8 == 0 ? 200 : 12;
      for (float& x : w) {
        x = RandomMagnitude(top - static_cast<int>(rng() % spread), rng);
        if (family == Int8Family::kSpecials && rng() % 4 == 0) {
          x = RandomSpecial(rng);
        }
      }
      break;
    }
    case Int8Family::kHalfSteps: {
      const int e = static_cast<int>(rng() % 241) - 140;
      for (float& x : w) {
        const float k = static_cast<float>(rng() % 127);
        x = std::ldexp(k + (rng() % 4 == 0 ? 0.0f : 0.5f), e);
        switch (rng() % 4) {
          case 0: x = std::nextafter(x, 0.0f); break;
          case 1: x = std::nextafter(x, 1.0f); break;
          default: break;
        }
        x = WithRandomSign(x, rng);
      }
      if (n > 0) w[rng() % n] = WithRandomSign(std::ldexp(127.0f, e), rng);
      break;
    }
    case Int8Family::kSubnormalScale: {
      // 127·FLT_MIN's bit pattern bounds the largest magnitude.
      constexpr std::uint32_t kBelow =
          std::bit_cast<std::uint32_t>(127.0f * 0x1p-126f);
      std::uint32_t max_bits = 0;
      switch (rng() % 3) {
        case 0:  // a subnormal of at most 1024 ulps
          max_bits = 1 + static_cast<std::uint32_t>(rng() % 1024);
          break;
        case 1:  // any subnormal
          max_bits = 1 + static_cast<std::uint32_t>(rng() % 0x7FFFFF);
          break;
        default:  // a normal below 127·FLT_MIN
          max_bits = 0x800000 + static_cast<std::uint32_t>(
                                    rng() % (kBelow - 0x800000));
          break;
      }
      for (float& x : w) {
        const auto bits = static_cast<std::uint32_t>(rng() % (max_bits + 1));
        x = WithRandomSign(std::bit_cast<float>(bits), rng);
        if (rng() % 16 == 0) x = RandomNonFinite(rng);
      }
      if (n > 0) {
        w[rng() % n] = WithRandomSign(std::bit_cast<float>(max_bits), rng);
      }
      break;
    }
    case Int8Family::kAllZero:
      for (float& x : w) x = WithRandomSign(0.0f, rng);
      break;
    case Int8Family::kAllNonFinite:
      for (float& x : w) {
        x = rng() % 8 == 0 ? WithRandomSign(0.0f, rng) : RandomNonFinite(rng);
      }
      break;
  }
  return w;
}

TEST(LrModelCodecTest, Int8PayloadBytesMatchGolden) {
  // One vector of every family at every sweep dimension, with a random
  // bias: the bytes of each ToBytes(kInt8), folded in order.
  golden::Digest digest;
  for (const Int8Family family : kInt8Families) {
    for (const std::size_t n : Int8SweepDims()) {
      Rng rng(DeterministicHash(0x1A78, static_cast<std::uint64_t>(family),
                                n));
      LrModel model(static_cast<std::uint32_t>(n));
      const std::vector<float> weights = Int8SweepVector(family, n, rng);
      std::copy(weights.begin(), weights.end(), model.weights().begin());
      model.bias() = RandomMagnitude(static_cast<int>(rng() % 8) - 4, rng);
      const auto bytes = model.ToBytes(PayloadCodec::kInt8);
      ASSERT_EQ(bytes, reference::Int8Blob(weights, model.bias()))
          << "family " << static_cast<int>(family) << ", dim " << n;
      digest.Add(bytes.size());
      for (const std::byte b : bytes) digest.Add(std::to_integer<int>(b));
    }
  }
  golden::ExpectGolden("ml.int8_payload_bytes", digest.value());
}

TEST(LrModelCodecTest, FromBytesSharedMatchesFromBytes) {
  const LrModel model = RampModel(32);
  for (const auto codec :
       {PayloadCodec::kFp32, PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    const auto bytes = model.ToBytes(codec);
    auto eager = LrModel::FromBytes(bytes);
    auto shared = LrModel::FromBytesShared(bytes);
    ASSERT_TRUE(eager.ok()) << ToString(codec);
    ASSERT_TRUE(shared.ok()) << ToString(codec);
    EXPECT_EQ((*shared)->bias(), eager->bias());
    for (std::uint32_t i = 0; i < 32; ++i) {
      EXPECT_EQ((*shared)->weights()[i], eager->weights()[i]);
    }
  }
}

TEST(LrModelCodecTest, QuantizedBlobValidation) {
  const LrModel model = RampModel(16);
  for (const auto codec : {PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    auto bytes = model.ToBytes(codec);
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(LrModel::FromBytes(truncated).ok()) << ToString(codec);
    auto padded = bytes;
    padded.push_back(std::byte{0});
    EXPECT_FALSE(LrModel::FromBytes(padded).ok()) << ToString(codec);
  }
  // Header alone (no payload) is rejected, not read out of bounds.
  auto header_only = model.ToBytes(PayloadCodec::kFp16);
  header_only.resize(3 * sizeof(std::uint32_t) + sizeof(float));
  EXPECT_FALSE(LrModel::FromBytes(header_only).ok());
  // An unknown codec tag inside a valid magic header is rejected.
  auto bad_tag = model.ToBytes(PayloadCodec::kFp16);
  const std::uint32_t unknown = 99;
  std::memcpy(bad_tag.data() + sizeof(std::uint32_t), &unknown,
              sizeof(unknown));
  EXPECT_FALSE(LrModel::FromBytes(bad_tag).ok());
  // An int8 scale the encoder never writes (it writes max|w| / 127, finite
  // and >= +0) would dequantize to NaN or inf weights: both decoders refuse
  // it as a ParseError.
  const float inf = std::numeric_limits<float>::infinity();
  for (const float scale :
       {std::numeric_limits<float>::quiet_NaN(), -std::nanf(""), inf, -inf,
        -0.0f, -1.0f, -std::numeric_limits<float>::denorm_min()}) {
    const auto blob = std::make_shared<std::vector<std::byte>>(
        model.ToBytes(PayloadCodec::kInt8));
    std::memcpy(blob->data() + 3 * sizeof(std::uint32_t) + sizeof(float),
                &scale, sizeof(scale));
    auto eager = LrModel::FromBytes(*blob);
    auto view = LrModel::FromBytesView(*blob, blob);
    ASSERT_FALSE(eager.ok()) << scale;
    ASSERT_FALSE(view.ok()) << scale;
    EXPECT_EQ(eager.error().code(), ErrorCode::kParseError) << scale;
    EXPECT_EQ(view.error().code(), ErrorCode::kParseError) << scale;
  }
  // Every scale the encoder can write still decodes.
  for (const float scale : {0.0f, std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max()}) {
    auto blob = model.ToBytes(PayloadCodec::kInt8);
    std::memcpy(blob.data() + 3 * sizeof(std::uint32_t) + sizeof(float),
                &scale, sizeof(scale));
    EXPECT_TRUE(LrModel::FromBytes(blob).ok()) << scale;
  }
}

void ExpectSameBits(std::span<const float> weights, const ModelView& view,
                    const LrModel& model) {
  ASSERT_EQ(view.dim(), model.dim());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(view.bias()),
            std::bit_cast<std::uint32_t>(model.bias()));
  ASSERT_EQ(weights.size(), model.dim());
  for (std::uint32_t i = 0; i < model.dim(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(weights[i]),
              std::bit_cast<std::uint32_t>(model.weights()[i]))
        << "weight " << i;
  }
}

/// Where an aliasing fp32 view's weights would start inside `blob`.
const void* Fp32WeightsIn(std::span<const std::byte> blob) {
  return blob.data() + sizeof(std::uint32_t) + sizeof(float);
}

TEST(LrModelCodecTest, FromBytesViewMatchesFromBytes) {
  const LrModel model = RampModel(32);
  for (const auto codec :
       {PayloadCodec::kFp32, PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    const auto blob =
        std::make_shared<const std::vector<std::byte>>(model.ToBytes(codec));
    auto eager = LrModel::FromBytes(*blob);
    auto view = LrModel::FromBytesView(*blob, blob);
    ASSERT_TRUE(eager.ok()) << ToString(codec);
    ASSERT_TRUE(view.ok()) << ToString(codec);
    std::vector<float> scratch;
    const std::span<const float> weights = view->Weights(scratch);
    ExpectSameBits(weights, *view, *eager);
    // fp32 weights are read in place; fp16/int8 are dequantized into the
    // caller's scratch.
    const void* expected = codec == PayloadCodec::kFp32
                               ? Fp32WeightsIn(*blob)
                               : static_cast<const void*>(scratch.data());
    EXPECT_EQ(static_cast<const void*>(weights.data()), expected)
        << ToString(codec);
    EXPECT_EQ(scratch.empty(), codec == PayloadCodec::kFp32)
        << ToString(codec);
  }
  EXPECT_FALSE(ModelView());
}

TEST(LrModelCodecTest, FromBytesViewDecodesMisalignedFp32IntoScratch) {
  const LrModel model = RampModel(16);
  const auto bytes = model.ToBytes();
  // One byte into a larger buffer the weights are no longer float-aligned:
  // Weights must copy them into the scratch rather than alias.
  auto storage = std::make_shared<std::vector<std::byte>>(bytes.size() + 1);
  std::memcpy(storage->data() + 1, bytes.data(), bytes.size());
  const std::span<const std::byte> shifted(storage->data() + 1, bytes.size());
  auto misaligned = LrModel::FromBytesView(shifted, storage);
  ASSERT_TRUE(misaligned.ok());
  std::vector<float> scratch;
  const std::span<const float> weights = misaligned->Weights(scratch);
  EXPECT_EQ(weights.data(), scratch.data());
  ExpectSameBits(weights, *misaligned, model);
}

TEST(LrModelCodecTest, FromBytesViewRejectsExactlyWhatFromBytesRejects) {
  // Every malformed blob of FromBytesRejectsGarbage and
  // QuantizedBlobValidation, through both decoders.
  const LrModel model = RampModel(16);
  std::vector<std::vector<std::byte>> garbage;
  garbage.emplace_back(3);
  garbage.push_back(LrModel(16).ToBytes());
  garbage.back().pop_back();
  for (const auto codec : {PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    garbage.push_back(model.ToBytes(codec));
    garbage.back().pop_back();
    garbage.push_back(model.ToBytes(codec));
    garbage.back().push_back(std::byte{0});
  }
  garbage.push_back(model.ToBytes(PayloadCodec::kFp16));
  garbage.back().resize(3 * sizeof(std::uint32_t) + sizeof(float));
  garbage.push_back(model.ToBytes(PayloadCodec::kFp16));
  const std::uint32_t unknown = 99;
  std::memcpy(garbage.back().data() + sizeof(std::uint32_t), &unknown,
              sizeof(unknown));

  for (std::size_t i = 0; i < garbage.size(); ++i) {
    const auto blob =
        std::make_shared<const std::vector<std::byte>>(garbage[i]);
    auto eager = LrModel::FromBytes(*blob);
    auto view = LrModel::FromBytesView(*blob, blob);
    ASSERT_FALSE(eager.ok()) << "case " << i;
    ASSERT_FALSE(view.ok()) << "case " << i;
    EXPECT_EQ(view.error().code(), eager.error().code()) << "case " << i;
    EXPECT_EQ(view.error().message(), eager.error().message()) << "case " << i;
  }
}

TEST(LrModelCodecTest, EncodedSizeRatiosAtScale) {
  // The million-device ladder's wire-size contract (int8 >= 3.9x, fp16 >=
  // 1.9x smaller than fp32) holds from dim 1024 up.
  const LrModel model(1024);
  const double fp32 =
      static_cast<double>(model.EncodedSize(PayloadCodec::kFp32));
  EXPECT_GE(fp32 / model.EncodedSize(PayloadCodec::kInt8), 3.9);
  EXPECT_GE(fp32 / model.EncodedSize(PayloadCodec::kFp16), 1.9);
}

#ifndef NDEBUG
TEST(LrModelTest, ScoreBoundsCheckFiresInDebug) {
  LrModel model(4);
  EXPECT_THROW((void)model.Score(MakeExample({7}, 0)), std::invalid_argument);
}
#endif

TEST(LrModelTest, DistanceToSelfIsZeroAndSymmetric) {
  LrModel a(8), b(8);
  a.weights()[3] = 1.0f;
  b.weights()[3] = 4.0f;
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), b.DistanceTo(a));
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 3.0);
}

TEST(LrModelTest, DimensionMismatchChecks) {
  LrModel a(8), b(4);
  EXPECT_THROW((void)a.DistanceTo(b), std::invalid_argument);
}

// ---------- Operators ----------

class OperatorTest : public ::testing::TestWithParam<OperatorVenue> {};

TEST_P(OperatorTest, SgdReducesLogLoss) {
  data::SynthConfig config;
  config.num_devices = 1;
  config.records_per_device_mean = 400;
  config.hash_dim = 1u << 12;
  config.seed = 3;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto& shard = dataset.devices[0].examples;

  LrModel model(config.hash_dim);
  const double before = LogLoss(model, shard);
  const auto op = MakeLrOperator(GetParam());
  TrainConfig train;
  train.learning_rate = 0.05;
  train.epochs = 10;
  op->Train(model, shard, train);
  const double after = LogLoss(model, shard);
  EXPECT_LT(after, before - 0.01);
}

TEST_P(OperatorTest, EmptyShardIsNoop) {
  LrModel model(64);
  const auto op = MakeLrOperator(GetParam());
  op->Train(model, {}, TrainConfig{});
  LrModel zero(64);
  EXPECT_DOUBLE_EQ(model.DistanceTo(zero), 0.0);
}

TEST_P(OperatorTest, DeterministicGivenSeed) {
  data::SynthConfig config;
  config.num_devices = 1;
  config.hash_dim = 1u << 12;
  config.records_per_device_mean = 100;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto op = MakeLrOperator(GetParam());
  TrainConfig train;
  train.shuffle_seed = 77;
  LrModel a(config.hash_dim), b(config.hash_dim);
  op->Train(a, dataset.devices[0].examples, train);
  op->Train(b, dataset.devices[0].examples, train);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Venues, OperatorTest,
                         ::testing::Values(OperatorVenue::kServer,
                                           OperatorVenue::kMobile),
                         [](const auto& info) {
                           return info.param == OperatorVenue::kServer
                                      ? "Server"
                                      : "Mobile";
                         });

TEST(OperatorDivergenceTest, KernelsAreCloseButNotIdentical) {
  // §VI-B2: the PyMNN-like and MNN-like kernels must produce *slightly*
  // different numerics (different precision / traversal) while remaining
  // statistically equivalent — that is the premise of Fig. 6.
  data::SynthConfig config;
  config.num_devices = 1;
  config.records_per_device_mean = 300;
  config.hash_dim = 1u << 12;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto& shard = dataset.devices[0].examples;

  TrainConfig train;
  train.learning_rate = 1e-2;
  train.epochs = 10;
  train.shuffle_seed = 5;
  LrModel server_model(config.hash_dim), mobile_model(config.hash_dim);
  ServerLrOperator().Train(server_model, shard, train);
  MobileLrOperator().Train(mobile_model, shard, train);

  const double distance = server_model.DistanceTo(mobile_model);
  EXPECT_GT(distance, 0.0);      // numerically distinct
  EXPECT_LT(distance, 0.5);      // but equivalent in effect
  const double acc_server = Accuracy(server_model, shard);
  const double acc_mobile = Accuracy(mobile_model, shard);
  EXPECT_NEAR(acc_server, acc_mobile, 0.02);
}

TEST(OperatorNamesTest, Distinct) {
  EXPECT_NE(ServerLrOperator().name(), MobileLrOperator().name());
}

// ---------- Metrics ----------

TEST(MetricsTest, AccuracyOnSeparableData) {
  LrModel model(4);
  model.weights()[0] = 5.0f;
  model.weights()[1] = -5.0f;
  std::vector<data::Example> examples = {
      MakeExample({0}, 1), MakeExample({1}, 0), MakeExample({0}, 1),
      MakeExample({1}, 1)};  // last one misclassified
  EXPECT_DOUBLE_EQ(Accuracy(model, examples), 0.75);
}

TEST(MetricsTest, AccuracyEmptyIsZero) {
  LrModel model(4);
  EXPECT_DOUBLE_EQ(Accuracy(model, {}), 0.0);
}

TEST(MetricsTest, LogLossOfZeroModelIsLn2) {
  LrModel model(4);
  std::vector<data::Example> examples = {MakeExample({0}, 1),
                                         MakeExample({1}, 0)};
  EXPECT_NEAR(LogLoss(model, examples), std::log(2.0), 1e-9);
}

TEST(MetricsTest, EvaluateBundlesAll) {
  LrModel model(4);
  std::vector<data::Example> examples = {MakeExample({0}, 1),
                                         MakeExample({1}, 0)};
  const auto report = Evaluate(model, examples);
  EXPECT_NEAR(report.logloss, std::log(2.0), 1e-9);
}

TEST(MetricsTest, SinglePassEvaluateMatchesIndividualMetrics) {
  // Evaluate scores each example once and derives both metrics from that
  // pass; it must agree exactly with the two standalone functions.
  LrModel model(16);
  Rng rng(99);
  for (auto& w : model.weights()) {
    w = static_cast<float>(rng.Normal(0.0, 0.7));
  }
  model.bias() = 0.2f;
  std::vector<data::Example> examples;
  for (int i = 0; i < 200; ++i) {
    examples.push_back(MakeExample(
        {static_cast<std::uint32_t>(rng.UniformInt(0, 15)),
         static_cast<std::uint32_t>(rng.UniformInt(0, 15))},
        rng.Bernoulli(0.4) ? 1 : 0));
  }
  const auto report = Evaluate(model, examples);
  EXPECT_DOUBLE_EQ(report.accuracy, Accuracy(model, examples));
  EXPECT_DOUBLE_EQ(report.logloss, LogLoss(model, examples));
}

TEST(MetricsTest, EvaluateDegenerateInputs) {
  LrModel model(4);
  const auto empty = Evaluate(model, {});
  EXPECT_DOUBLE_EQ(empty.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(empty.logloss, 0.0);

  std::vector<data::Example> positives = {MakeExample({0}, 1),
                                          MakeExample({1}, 1)};
  const auto report = Evaluate(model, positives);
  EXPECT_DOUBLE_EQ(report.accuracy, Accuracy(model, positives));
  EXPECT_NEAR(report.logloss, std::log(2.0), 1e-9);
}

// ---------- FedAvg ----------

TEST(FedAvgTest, WeightedAverageBySamples) {
  LrModel a(4), b(4);
  a.weights()[0] = 1.0f;
  a.bias() = 1.0f;
  b.weights()[0] = 4.0f;
  b.bias() = -2.0f;
  FedAvgAggregator agg(4);
  ASSERT_TRUE(agg.Add(a, 1).ok());
  ASSERT_TRUE(agg.Add(b, 3).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->weights()[0], (1.0 * 1 + 4.0 * 3) / 4.0, 1e-6);
  EXPECT_NEAR(avg->bias(), (1.0 * 1 - 2.0 * 3) / 4.0, 1e-6);
  EXPECT_EQ(agg.clients(), 2u);
  EXPECT_EQ(agg.total_samples(), 4u);
}

TEST(FedAvgTest, SingleClientIsIdentity) {
  LrModel a(8);
  a.weights()[5] = 2.5f;
  FedAvgAggregator agg(8);
  ASSERT_TRUE(agg.Add(a, 10).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->DistanceTo(a), 0.0, 1e-6);
}

TEST(FedAvgTest, RejectsMismatchedDimAndZeroSamples) {
  FedAvgAggregator agg(8);
  EXPECT_FALSE(agg.Add(LrModel(4), 1).ok());
  EXPECT_FALSE(agg.Add(LrModel(8), 0).ok());
  EXPECT_FALSE(agg.Add(std::vector<float>(4), 0.0f, 1).ok());
  EXPECT_EQ(agg.clients(), 0u);
}

TEST(FedAvgTest, AggregateWithoutUpdatesFails) {
  FedAvgAggregator agg(8);
  EXPECT_FALSE(agg.Aggregate().ok());
}

TEST(FedAvgTest, ResetClears) {
  FedAvgAggregator agg(4);
  LrModel a(4);
  a.weights()[0] = 8.0f;
  ASSERT_TRUE(agg.Add(a, 2).ok());
  agg.Reset();
  EXPECT_EQ(agg.clients(), 0u);
  EXPECT_FALSE(agg.Aggregate().ok());
  LrModel b(4);
  b.weights()[0] = 2.0f;
  ASSERT_TRUE(agg.Add(b, 1).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->weights()[0], 2.0, 1e-6);  // no leakage from before reset
}

TEST(FedAvgTest, AverageOfIdenticalModelsIsUnchanged) {
  LrModel m(16);
  for (std::uint32_t i = 0; i < 16; ++i) m.weights()[i] = 0.5f - 0.05f * i;
  FedAvgAggregator agg(16);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(agg.Add(m, 7).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->DistanceTo(m), 0.0, 1e-5);
}

// One client's model and its FedAvg weight (local sample count).
struct WeightedUpdate {
  LrModel model;
  std::size_t sample_count = 0;
};

// Adversarial mix of magnitudes and sample weights for the invariance
// tests: large cancelling values next to tiny ones is the worst case for a
// reordered floating-point sum.
std::vector<WeightedUpdate> AdversarialUpdates(std::size_t count,
                                               std::uint32_t dim,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedUpdate> updates;
  for (std::size_t k = 0; k < count; ++k) {
    WeightedUpdate u{LrModel(dim), 1 + static_cast<std::size_t>(rng() % 997)};
    for (std::uint32_t i = 0; i < dim; ++i) {
      const double magnitude = std::pow(10.0, static_cast<double>(
                                                  rng() % 13) -
                                                  6.0);
      const double sign = (rng() & 1) ? 1.0 : -1.0;
      u.model.weights()[i] = static_cast<float>(sign * magnitude);
    }
    u.model.bias() = static_cast<float>(static_cast<double>(rng() % 2000) -
                                        1000.0);
    updates.push_back(std::move(u));
  }
  return updates;
}

std::vector<float> AggregateBits(const LrModel& model) {
  std::vector<float> bits(model.weights().begin(), model.weights().end());
  bits.push_back(model.bias());
  return bits;
}

TEST(FedAvgTest, AggregateIsOrderInvariantUnderShuffle) {
  // Bit-identical published models no matter the Add order: the cascade's
  // invariance window (~2^-99 relative) sits far below the final
  // double->float rounding. 20 adversarial shuffles, dim 64, 160 updates.
  auto updates = AdversarialUpdates(160, 64, 0xF00D);
  FedAvgAggregator reference(64);
  for (const auto& u : updates) {
    ASSERT_TRUE(reference.Add(u.model, u.sample_count).ok());
  }
  auto ref_model = reference.Aggregate();
  ASSERT_TRUE(ref_model.ok());
  const auto ref_bits = AggregateBits(*ref_model);

  Rng rng(0xBEEF);
  for (int trial = 0; trial < 20; ++trial) {
    rng.Shuffle(updates);
    FedAvgAggregator shuffled(64);
    for (const auto& u : updates) {
      ASSERT_TRUE(shuffled.Add(u.model, u.sample_count).ok());
    }
    auto model = shuffled.Aggregate();
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(AggregateBits(*model), ref_bits) << "shuffle trial " << trial;
  }
}

TEST(FedAvgTest, MergeFromMatchesSerialBitForBit) {
  // Shard-split invariance: partition the updates into k partial
  // aggregators, merge ascending, compare to the flat serial sum — the
  // exact reduction the partial-sum plane runs. Every split width the
  // plane supports plus an uneven one.
  const auto updates = AdversarialUpdates(96, 32, 0xCAFE);
  FedAvgAggregator reference(32);
  for (const auto& u : updates) {
    ASSERT_TRUE(reference.Add(u.model, u.sample_count).ok());
  }
  auto ref_model = reference.Aggregate();
  ASSERT_TRUE(ref_model.ok());
  const auto ref_bits = AggregateBits(*ref_model);

  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    std::vector<FedAvgAggregator> partials;
    for (std::size_t s = 0; s < shards; ++s) partials.emplace_back(32);
    for (std::size_t k = 0; k < updates.size(); ++k) {
      ASSERT_TRUE(partials[k % shards]
                      .Add(updates[k].model, updates[k].sample_count)
                      .ok());
    }
    FedAvgAggregator merged(32);
    for (const auto& partial : partials) merged.MergeFrom(partial);
    EXPECT_EQ(merged.clients(), reference.clients());
    EXPECT_EQ(merged.total_samples(), reference.total_samples());
    auto model = merged.Aggregate();
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(AggregateBits(*model), ref_bits) << shards << " shards";
  }
}

TEST(FedAvgTest, RestoreRoundTripsCascadeStateBitExactly) {
  // The checkpoint seam: state() -> Restore must reproduce the aggregator
  // exactly, including both compensation planes, so a recovered run
  // publishes the same bits.
  const auto updates = AdversarialUpdates(40, 16, 0xD00F);
  FedAvgAggregator original(16);
  for (const auto& u : updates) {
    ASSERT_TRUE(original.Add(u.model, u.sample_count).ok());
  }

  FedAvgAggregator restored(16);
  restored.Restore(original.state());
  EXPECT_EQ(restored.clients(), original.clients());
  EXPECT_EQ(restored.total_samples(), original.total_samples());

  // Keep adding to both after the restore: identical trajectories.
  const auto more = AdversarialUpdates(17, 16, 0xFEED);
  FedAvgAggregator cont = std::move(restored);
  for (const auto& u : more) {
    ASSERT_TRUE(original.Add(u.model, u.sample_count).ok());
    ASSERT_TRUE(cont.Add(u.model, u.sample_count).ok());
  }
  auto a = original.Aggregate();
  auto b = cont.Aggregate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(AggregateBits(*a), AggregateBits(*b));

  // Reset drops everything, including the restored planes.
  cont.Reset();
  EXPECT_EQ(cont.clients(), 0u);
  EXPECT_EQ(cont.total_samples(), 0u);
  EXPECT_FALSE(cont.Aggregate().ok());
  const FedAvgAggregator::State& reset = cont.state();
  for (const auto* plane :
       {&reset.accumulator, &reset.accumulator_c1, &reset.accumulator_c2}) {
    for (const double v : *plane) EXPECT_EQ(v, 0.0);
  }
  EXPECT_EQ(reset.bias_accumulator, 0.0);
  EXPECT_EQ(reset.bias_accumulator_c1, 0.0);
  EXPECT_EQ(reset.bias_accumulator_c2, 0.0);
}

/// Byte equality of two double planes: unlike ==, tells +0.0 from -0.0
/// (and would tell NaN payloads apart).
bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(FedAvgKernelTest, RestrictKernelMatchesScalarReferenceBitForBit) {
  // fedavg_add_simd (the dispatched CascadeAdd, FedAvgAggregator's path)
  // vs fedavg_add_scalar (CascadeAddScalar): same cascade — every byte of
  // every plane equal.
  Rng rng(0xAB5E);
  const std::size_t n = 1024;
  std::vector<float> weights(n);
  for (auto& w : weights) {
    w = static_cast<float>(static_cast<double>(rng() % 100000) / 7.0 -
                           7000.0);
  }
  std::vector<double> sum_a(n, 0.0), c1_a(n, 0.0), c2_a(n, 0.0);
  std::vector<double> sum_b(n, 0.0), c1_b(n, 0.0), c2_b(n, 0.0);
  for (int pass = 0; pass < 5; ++pass) {
    const double scale = static_cast<double>(1 + rng() % 997);
    kernels::CascadeAddScalar(weights, scale, sum_a, c1_a, c2_a);
    kernels::CascadeAdd(weights.data(), n, scale, sum_b.data(), c1_b.data(),
                        c2_b.data());
    EXPECT_TRUE(SameBytes(sum_a, sum_b)) << "pass " << pass;
    EXPECT_TRUE(SameBytes(c1_a, c1_b)) << "pass " << pass;
    EXPECT_TRUE(SameBytes(c2_a, c2_b)) << "pass " << pass;
  }
}

// ---------- Cascade kernel variants ----------

/// Every vector tail: empty, shorter than one 4-double vector, around one
/// and two vectors, and around a 4096-element body.
constexpr std::size_t kParityLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                          4095, 4096, 4097};

/// Finite values of mixed sign and magnitude (1e-30 to 1e30), subnormals
/// of T and both zeros, interleaved at random: float weights for
/// CascadeAdd, double terms for CascadeMerge and for cascade planes.
template <typename T>
std::vector<T> ParityValues(std::size_t n, Rng& rng) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  constexpr Bits kMantissaMask =
      (Bits{1} << (std::numeric_limits<T>::digits - 1)) - 1;
  std::vector<T> out(n);
  for (T& x : out) {
    switch (rng() % 6) {
      case 0:
        x = T{0};
        break;
      case 1:
        x = std::bit_cast<T>(static_cast<Bits>(1 + rng() % kMantissaMask));
        break;
      default: {
        const double exponent = static_cast<double>(rng() % 61) - 30.0;
        const double mantissa =
            1.0 + static_cast<double>(rng() % 1000000) / 1e6;
        x = static_cast<T>(mantissa * std::pow(10.0, exponent));
        break;
      }
    }
    if ((rng() & 1) != 0) x = -x;
  }
  return out;
}

/// Sample-count scales a cascade sees, up to 2^20.
constexpr double kParityScales[] = {1.0, 1048576.0, 3.0, 997.0, 1048575.0,
                                    2.0};

/// One cascade's three planes, drawn from ParityValues. A cascade that
/// starts from zeros never holds -0.0, so random planes are what lets a
/// variant's zero signs differ from the reference's.
struct Planes {
  Planes(std::size_t n, Rng& rng)
      : sum(ParityValues<double>(n, rng)),
        c1(ParityValues<double>(n, rng)),
        c2(ParityValues<double>(n, rng)) {}
  std::vector<double> sum, c1, c2;
};

void ExpectSamePlanes(const Planes& a, const Planes& b,
                      const std::string& where) {
  EXPECT_TRUE(SameBytes(a.sum, b.sum)) << where << ": sum";
  EXPECT_TRUE(SameBytes(a.c1, b.c1)) << where << ": c1";
  EXPECT_TRUE(SameBytes(a.c2, b.c2)) << where << ": c2";
}

/// A parity suite over every kernel variant this build has: the AVX2
/// case skips on a CPU without AVX2 (or a non-x86 build).
class IsaParityTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!Supports(GetParam())) {
      GTEST_SKIP() << "the " << ToString(GetParam())
                   << " variant cannot run here: this CPU lacks the "
                      "instruction set, or this is not an x86 build";
    }
  }
};

std::string IsaName(const ::testing::TestParamInfo<Isa>& info) {
  return ToString(info.param);
}

/// Every cascade kernel variant against the scalar reference.
class CascadeKernelParityTest : public IsaParityTest {};

TEST_P(CascadeKernelParityTest, AddMatchesScalarReferenceBytes) {
  for (const std::size_t n : kParityLengths) {
    Rng rng(0xCA5C + n);
    Planes reference(n, rng);
    Planes variant = reference;
    for (const double scale : kParityScales) {
      const std::vector<float> weights = ParityValues<float>(n, rng);
      kernels::CascadeAddScalar(weights, scale, reference.sum, reference.c1,
                                reference.c2);
      kernels::CascadeAdd(GetParam(), weights.data(), n, scale,
                          variant.sum.data(), variant.c1.data(),
                          variant.c2.data());
      ExpectSamePlanes(reference, variant,
                       "n=" + std::to_string(n) +
                           " scale=" + std::to_string(scale));
    }
  }
}

TEST_P(CascadeKernelParityTest, MergeMatchesScalarReferenceBytes) {
  // The scalar merge reference folds each of the other cascade's terms
  // through CascadeAddScalar as 1.0f × term, which is exact.
  const float one = 1.0f;
  for (const std::size_t n : kParityLengths) {
    Rng rng(0x3E26E + n);
    Planes reference(n, rng);
    for (const double scale : kParityScales) {
      kernels::CascadeAddScalar(ParityValues<float>(n, rng), scale,
                                reference.sum, reference.c1, reference.c2);
    }
    Planes variant = reference;
    for (int merge = 0; merge < 3; ++merge) {
      const Planes other(n, rng);
      for (std::size_t i = 0; i < n; ++i) {
        for (const double term : {other.sum[i], other.c1[i], other.c2[i]}) {
          kernels::CascadeAddScalar(std::span(&one, 1), term,
                                    std::span(&reference.sum[i], 1),
                                    std::span(&reference.c1[i], 1),
                                    std::span(&reference.c2[i], 1));
        }
      }
      kernels::CascadeMerge(GetParam(), other.sum.data(), other.c1.data(),
                            other.c2.data(), n, variant.sum.data(),
                            variant.c1.data(), variant.c2.data());
      ExpectSamePlanes(reference, variant,
                       "n=" + std::to_string(n) +
                           " merge=" + std::to_string(merge));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, CascadeKernelParityTest,
                         ::testing::Values(Isa::kPortable, Isa::kAvx2),
                         IsaName);

TEST(FedAvgKernelTest, DispatchPicksAvx2WhereverItRuns) {
  EXPECT_EQ(DispatchedIsa(),
            Supports(Isa::kAvx2) ? Isa::kAvx2 : Isa::kPortable);
}

TEST(FedAvgKernelTest, CascadeTracksExactSumOfCancellingTerms) {
  // 1e16 and ±1 terms: a naive double sum loses the ±1s entirely; the
  // cascade's represented value keeps them.
  std::vector<double> sum(1, 0.0), c1(1, 0.0), c2(1, 0.0);
  std::vector<float> big{1.0f};
  kernels::CascadeAddScalar(big, 1e16, sum, c1, c2);
  for (int i = 0; i < 1000; ++i) {
    kernels::CascadeAddScalar(big, 1.0, sum, c1, c2);
  }
  kernels::CascadeAddScalar(big, -1e16, sum, c1, c2);
  EXPECT_EQ(kernels::CascadeValue(sum[0], c1[0], c2[0]), 1000.0);
}

// ---------- int8 quantizer variants ----------

/// Every int8 quantizer variant against the scalar std::lround loop of
/// tests/reference_codec.h: the scale's bits and every code.
class Int8QuantizerParityTest : public IsaParityTest {
 protected:
  ::testing::AssertionResult QuantizesLikeReference(
      std::span<const float> weights) const {
    const reference::Int8Codes want = reference::QuantizeInt8(weights);
    std::vector<std::int8_t> codes(weights.size());
    const float scale = kernels::QuantizeInt8(GetParam(), weights.data(),
                                              weights.size(), codes.data());
    if (std::bit_cast<std::uint32_t>(scale) !=
        std::bit_cast<std::uint32_t>(want.scale)) {
      return ::testing::AssertionFailure()
             << "dim " << weights.size() << ": scale " << scale
             << ", reference " << want.scale;
    }
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (codes[i] != want.codes[i]) {
        return ::testing::AssertionFailure()
               << "dim " << weights.size() << ", weight " << i << " = "
               << weights[i] << " (bits 0x" << std::hex
               << std::bit_cast<std::uint32_t>(weights[i]) << std::dec
               << "), scale " << scale << ": code "
               << static_cast<int>(codes[i]) << ", reference "
               << static_cast<int>(want.codes[i]);
      }
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_P(Int8QuantizerParityTest, EveryFamilyAtEveryTailMatchesReferenceBytes) {
  for (const Int8Family family : kInt8Families) {
    for (const std::size_t n : Int8SweepDims()) {
      Rng rng(DeterministicHash(0x9A21, static_cast<std::uint64_t>(family),
                                n));
      for (int v = 0; v < 8; ++v) {
        ASSERT_TRUE(QuantizesLikeReference(Int8SweepVector(family, n, rng)))
            << "family " << static_cast<int>(family) << ", vector " << v;
      }
    }
  }
}

TEST_P(Int8QuantizerParityTest, SubnormalScalesMatchReferenceThroughTheClamp) {
  // 4,000 vectors whose scale is subnormal or 0. The sweep must reach
  // |w| / scale >= 127.5, where only the clamp keeps a code in range.
  Rng rng(0x5AB0);
  const std::vector<std::size_t> dims = Int8SweepDims();
  int past_clamp = 0;
  for (int v = 0; v < 4000; ++v) {
    const std::size_t n = dims[static_cast<std::size_t>(v) % dims.size()];
    const std::vector<float> w =
        Int8SweepVector(Int8Family::kSubnormalScale, n, rng);
    ASSERT_TRUE(QuantizesLikeReference(w)) << "vector " << v;
    const float scale = reference::QuantizeInt8(w).scale;
    past_clamp += std::any_of(w.begin(), w.end(), [scale](float x) {
      return scale > 0.0f && std::isfinite(x) && std::fabs(x) / scale >= 127.5f;
    });
  }
  EXPECT_GT(past_clamp, 100);
}

TEST_P(Int8QuantizerParityTest, ExactHalfStepsRoundAwayFromZero) {
  // max |w| = 127 makes the scale exactly 1, so w / scale == w.
  const std::vector<float> w = {127.0f,  0.5f,   -0.5f, 1.5f,
                                -2.5f,   126.5f, -126.5f,
                                std::nextafter(0.5f, 0.0f),
                                std::nextafter(-0.5f, 0.0f),
                                std::nextafter(2.5f, 0.0f), 0.0f, -0.0f};
  const std::vector<std::int8_t> want = {127, 1, -1, 2, -3, 127, -127,
                                         0,   0, 2,  0, 0};
  std::vector<std::int8_t> codes(w.size());
  EXPECT_EQ(kernels::QuantizeInt8(GetParam(), w.data(), w.size(),
                                  codes.data()),
            1.0f);
  EXPECT_EQ(codes, want);
  EXPECT_TRUE(QuantizesLikeReference(w));
}

TEST_P(Int8QuantizerParityTest, AllZeroAndAllNonFiniteVectorsUseZeroScale) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::vector<float>& w :
       {std::vector<float>{0.0f, -0.0f, 0.0f},
        std::vector<float>{inf, -inf, nan, -nan, 0.0f}}) {
    std::vector<std::int8_t> codes(w.size());
    const float scale =
        kernels::QuantizeInt8(GetParam(), w.data(), w.size(), codes.data());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(scale), 0u);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(codes[i], std::isinf(w[i]) ? (w[i] > 0 ? 127 : -127) : 0)
          << "weight " << i;
    }
    EXPECT_TRUE(QuantizesLikeReference(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, Int8QuantizerParityTest,
                         ::testing::Values(Isa::kPortable, Isa::kAvx2),
                         IsaName);

}  // namespace
}  // namespace simdc::ml
