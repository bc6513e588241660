#include "ml/lr_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

namespace simdc::ml {
namespace {

// Quantized blobs carry a small header so the decoder can tell them apart
// from legacy fp32 blobs (which start with the raw dimension). "SDCQ" as a
// little-endian u32. A legacy blob whose dim field collided with this magic
// would need a ~7.6 GB payload to also pass fp32 size validation, so the
// two formats are unambiguous in practice.
constexpr std::uint32_t kQuantMagic = 0x51434453;  // "SDCQ"

// Tagged header: magic:u32, codec:u32, dim:u32, bias:f32, then the
// per-codec payload (fp16: dim×u16; int8: scale:f32 + dim×i8).
constexpr std::size_t kTaggedHeaderBytes =
    sizeof(std::uint32_t) * 3 + sizeof(float);

// --- Portable float <-> IEEE 754 half conversion (round-to-nearest-even).
// Bit-twiddling only: no <stdfloat>, no compiler intrinsics, so the wire
// format is identical across toolchains.

std::uint16_t FloatToHalf(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  std::uint32_t mant = bits & 0x007FFFFFu;

  if (exp >= 143) {  // >= 2^16 overflows half (or fp32 inf/nan) -> inf/nan
    if (exp == 0xFF && mant != 0) {
      return static_cast<std::uint16_t>(sign | 0x7E00u);  // quiet NaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);  // infinity
  }
  if (exp >= 113) {  // normal half range
    const std::uint32_t half_exp = exp - 112;
    // Round mantissa from 23 to 10 bits, ties-to-even.
    std::uint32_t half = (half_exp << 10) | (mant >> 13);
    const std::uint32_t round_bits = mant & 0x1FFFu;
    if (round_bits > 0x1000u || (round_bits == 0x1000u && (half & 1u))) {
      ++half;  // may carry into the exponent; that is the correct rounding
    }
    return static_cast<std::uint16_t>(sign | half);
  }
  if (exp >= 102) {  // subnormal half
    mant |= 0x00800000u;  // restore the implicit leading bit
    const std::uint32_t shift = 125 - exp;
    std::uint32_t half = mant >> (shift + 1);
    const std::uint32_t round_mask = (1u << (shift + 1)) - 1;
    const std::uint32_t round_bits = mant & round_mask;
    const std::uint32_t halfway = 1u << shift;
    if (round_bits > halfway || (round_bits == halfway && (half & 1u))) {
      ++half;
    }
    return static_cast<std::uint16_t>(sign | half);
  }
  return static_cast<std::uint16_t>(sign);  // underflow to signed zero
}

float HalfToFloat(std::uint16_t value) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(value) & 0x8000u) << 16;
  const std::uint32_t exp = (value >> 10) & 0x1Fu;
  std::uint32_t mant = value & 0x3FFu;

  if (exp == 0x1F) {  // inf / nan
    return std::bit_cast<float>(sign | 0x7F800000u | (mant << 13));
  }
  if (exp == 0) {
    if (mant == 0) return std::bit_cast<float>(sign);  // signed zero
    // Subnormal half: normalize into fp32.
    std::uint32_t e = 113;
    while ((mant & 0x400u) == 0) {
      mant <<= 1;
      --e;
    }
    mant &= 0x3FFu;
    return std::bit_cast<float>(sign | (e << 23) | (mant << 13));
  }
  return std::bit_cast<float>(sign | ((exp + 112) << 23) | (mant << 13));
}

template <typename T>
void AppendRaw(std::byte*& p, const T& value) {
  std::memcpy(p, &value, sizeof(T));
  p += sizeof(T);
}

template <typename T>
T ReadRaw(const std::byte*& p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

/// A blob whose header and size passed validation: what the weight decode
/// needs, with `payload` at the first encoded weight.
struct BlobLayout {
  PayloadCodec codec = PayloadCodec::kFp32;
  std::uint32_t dim = 0;
  float bias = 0.0f;
  /// kInt8 only: the per-tensor dequantization scale.
  float scale = 0.0f;
  const std::byte* payload = nullptr;
};

/// The one validation routine behind every decode entry point, so they
/// all accept and reject exactly the same bytes with the same errors.
Result<BlobLayout> ParseBlob(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(std::uint32_t) + sizeof(float)) {
    return ParseError("model blob too small");
  }
  const std::byte* p = bytes.data();
  const std::uint32_t head = ReadRaw<std::uint32_t>(p);
  BlobLayout layout;

  if (head != kQuantMagic) {
    // Legacy fp32 blob: head is the dimension.
    const std::uint32_t d = head;
    const std::size_t expected = sizeof(std::uint32_t) + sizeof(float) +
                                 static_cast<std::size_t>(d) * sizeof(float);
    if (bytes.size() != expected) {
      return ParseError("model blob size mismatch: got " +
                        std::to_string(bytes.size()) + ", want " +
                        std::to_string(expected));
    }
    layout.dim = d;
    layout.bias = ReadRaw<float>(p);
    layout.payload = p;
    return layout;
  }

  if (bytes.size() < kTaggedHeaderBytes) {
    return ParseError("quantized model blob truncated header");
  }
  const std::uint32_t codec_raw = ReadRaw<std::uint32_t>(p);
  layout.dim = ReadRaw<std::uint32_t>(p);
  layout.bias = ReadRaw<float>(p);
  const auto d = static_cast<std::size_t>(layout.dim);

  switch (static_cast<PayloadCodec>(codec_raw)) {
    case PayloadCodec::kFp16: {
      const std::size_t expected =
          kTaggedHeaderBytes + d * sizeof(std::uint16_t);
      if (bytes.size() != expected) {
        return ParseError("fp16 model blob size mismatch: got " +
                          std::to_string(bytes.size()) + ", want " +
                          std::to_string(expected));
      }
      layout.codec = PayloadCodec::kFp16;
      layout.payload = p;
      return layout;
    }
    case PayloadCodec::kInt8: {
      const std::size_t expected = kTaggedHeaderBytes + sizeof(float) + d;
      if (bytes.size() != expected) {
        return ParseError("int8 model blob size mismatch: got " +
                          std::to_string(bytes.size()) + ", want " +
                          std::to_string(expected));
      }
      layout.codec = PayloadCodec::kInt8;
      layout.scale = ReadRaw<float>(p);
      // The encoder writes max|w| / 127: finite, and +0 or positive. Any
      // other scale would dequantize to NaN or inf weights.
      if (std::bit_cast<std::uint32_t>(layout.scale) >= 0x7F800000u) {
        return ParseError("int8 model blob scale is not finite and >= +0: " +
                          std::to_string(layout.scale));
      }
      layout.payload = p;
      return layout;
    }
    case PayloadCodec::kFp32:
      break;  // fp32 is never tagged; fall through to the error
  }
  return ParseError("unknown payload codec tag: " + std::to_string(codec_raw));
}

/// Decodes a validated blob's weights into `out` (layout.dim floats).
void DecodeWeights(const BlobLayout& layout, float* out) {
  const std::byte* p = layout.payload;
  switch (layout.codec) {
    case PayloadCodec::kFp32:
      std::memcpy(out, p, static_cast<std::size_t>(layout.dim) * sizeof(float));
      return;
    case PayloadCodec::kFp16:
      for (std::uint32_t i = 0; i < layout.dim; ++i) {
        out[i] = HalfToFloat(ReadRaw<std::uint16_t>(p));
      }
      return;
    case PayloadCodec::kInt8:
      for (std::uint32_t i = 0; i < layout.dim; ++i) {
        out[i] = static_cast<float>(ReadRaw<std::int8_t>(p)) * layout.scale;
      }
      return;
  }
}

}  // namespace

namespace kernels {
namespace {

/// fp32 +inf's bit pattern: |w|'s bits are below it iff w is finite.
constexpr std::int32_t kInfBits = 0x7F800000;

/// The one loop body of every QuantizeInt8 variant. Always inlined, so each
/// variant compiles it for its own target. Both loops are branch-free and
/// every select is integer mask arithmetic: GCC keeps a float select (and
/// a float max reduction) scalar under the default -ftrapping-math.
[[gnu::always_inline]] inline float QuantizeInt8Loop(
    const float* SIMDC_RESTRICT weights, std::size_t n,
    std::int8_t* SIMDC_RESTRICT codes) {
  // The scale is taken over finite weights only, so a stray inf cannot
  // collapse every other weight to zero. Non-negative floats order as
  // their bit patterns do, so the largest finite |w| is an integer max;
  // a signed one, which SSE2 vectorizes and an unsigned one not.
  std::int32_t max_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t a = std::bit_cast<std::int32_t>(weights[i]) & 0x7FFFFFFF;
    const std::int32_t finite = a < kInfBits ? a : 0;
    max_bits = finite > max_bits ? finite : max_bits;
  }
  // Zero scale means no nonzero finite weight, or one so small that the
  // scale underflows; every finite code is then 0, which dividing by 1
  // also gives. The decoder maps any code back to 0.
  const float scale = std::bit_cast<float>(max_bits) / 127.0f;
  const float divisor = scale > 0.0f ? scale : 1.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t bits = std::bit_cast<std::int32_t>(weights[i]);
    const std::int32_t a = bits & 0x7FFFFFFF;
    // NaN and ±inf divide as +0, so the convert below never sees them.
    const std::int32_t finite_mask = -static_cast<std::int32_t>(a < kInfBits);
    const float scaled = std::bit_cast<float>(bits & finite_mask) / divisor;
    // Round half away from zero (std::lround): truncate, then step away
    // from zero when the exact remainder reaches a half.
    const auto truncated = static_cast<std::int32_t>(scaled);
    const float remainder = scaled - static_cast<float>(truncated);
    std::int32_t q = truncated + static_cast<std::int32_t>(remainder >= 0.5f) -
                     static_cast<std::int32_t>(remainder <= -0.5f);
    // A subnormal scale rounds coarsely, so |w| / scale reaches about 190.
    q = q < -127 ? -127 : q;
    q = q > 127 ? 127 : q;
    // ±inf saturates.
    const std::int32_t inf_mask = -static_cast<std::int32_t>(a == kInfBits);
    const std::int32_t saturated = bits < 0 ? -127 : 127;
    q = (q & ~inf_mask) | (saturated & inf_mask);
    codes[i] = static_cast<std::int8_t>(q);
  }
  return scale;
}

using QuantizeFn = float (*)(const float*, std::size_t, std::int8_t*);

float QuantizeInt8Portable(const float* SIMDC_RESTRICT weights, std::size_t n,
                           std::int8_t* SIMDC_RESTRICT codes) {
  return QuantizeInt8Loop(weights, n, codes);
}

#ifdef SIMDC_ISA_AVX2
// "avx2" without fma, as for the cascade kernels (ml/fedavg.cpp); the
// body has no multiply-add to contract anyway.
__attribute__((target("avx2"))) float QuantizeInt8Avx2(
    const float* SIMDC_RESTRICT weights, std::size_t n,
    std::int8_t* SIMDC_RESTRICT codes) {
  return QuantizeInt8Loop(weights, n, codes);
}
#endif

QuantizeFn QuantizerFor(Isa isa) {
  SIMDC_CHECK(Supports(isa), "int8 quantizer variant " << ToString(isa)
                                 << " is not supported on this CPU/build");
#ifdef SIMDC_ISA_AVX2
  if (isa == Isa::kAvx2) return QuantizeInt8Avx2;
#endif
  return QuantizeInt8Portable;
}

}  // namespace

float QuantizeInt8(const float* SIMDC_RESTRICT weights, std::size_t n,
                   std::int8_t* SIMDC_RESTRICT codes) {
  static const QuantizeFn dispatched = QuantizerFor(DispatchedIsa());
  return dispatched(weights, n, codes);
}

float QuantizeInt8(Isa isa, const float* SIMDC_RESTRICT weights,
                   std::size_t n, std::int8_t* SIMDC_RESTRICT codes) {
  return QuantizerFor(isa)(weights, n, codes);
}

}  // namespace kernels

const char* ToString(PayloadCodec codec) {
  switch (codec) {
    case PayloadCodec::kFp32: return "fp32";
    case PayloadCodec::kFp16: return "fp16";
    case PayloadCodec::kInt8: return "int8";
  }
  return "unknown";
}

double LrModel::DistanceTo(const LrModel& other) const {
  SIMDC_CHECK(dim() == other.dim(), "model dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    const double d = static_cast<double>(weights_[i]) - other.weights_[i];
    sum += d * d;
  }
  const double db = static_cast<double>(bias_) - other.bias_;
  sum += db * db;
  return std::sqrt(sum);
}

std::size_t LrModel::EncodedSize(PayloadCodec codec) const {
  switch (codec) {
    case PayloadCodec::kFp32:
      return SerializedSize();
    case PayloadCodec::kFp16:
      return kTaggedHeaderBytes + weights_.size() * sizeof(std::uint16_t);
    case PayloadCodec::kInt8:
      return kTaggedHeaderBytes + sizeof(float) + weights_.size();
  }
  SIMDC_CHECK(false, "unknown payload codec");
  return 0;
}

void LrModel::EncodeTo(std::span<std::byte> out, PayloadCodec codec) const {
  SIMDC_CHECK(out.size() == EncodedSize(codec),
              "EncodeTo buffer size " << out.size() << " != encoded size "
                                      << EncodedSize(codec));
  std::byte* p = out.data();
  const std::uint32_t d = dim();
  switch (codec) {
    case PayloadCodec::kFp32: {
      // Historical untagged format — must stay bit-identical.
      AppendRaw(p, d);
      AppendRaw(p, bias_);
      std::memcpy(p, weights_.data(), weights_.size() * sizeof(float));
      return;
    }
    case PayloadCodec::kFp16: {
      AppendRaw(p, kQuantMagic);
      AppendRaw(p, static_cast<std::uint32_t>(PayloadCodec::kFp16));
      AppendRaw(p, d);
      AppendRaw(p, bias_);
      for (float w : weights_) {
        AppendRaw(p, FloatToHalf(w));
      }
      return;
    }
    case PayloadCodec::kInt8: {
      AppendRaw(p, kQuantMagic);
      AppendRaw(p, static_cast<std::uint32_t>(PayloadCodec::kInt8));
      AppendRaw(p, d);
      AppendRaw(p, bias_);
      // The codes follow the scale, which is known only once they are.
      const float scale = kernels::QuantizeInt8(
          weights_.data(), weights_.size(),
          reinterpret_cast<std::int8_t*>(p + sizeof(float)));
      AppendRaw(p, scale);
      return;
    }
  }
  SIMDC_CHECK(false, "unknown payload codec");
}

std::vector<std::byte> LrModel::ToBytes(PayloadCodec codec) const {
  std::vector<std::byte> out(EncodedSize(codec));
  EncodeTo(out, codec);
  return out;
}

Result<LrModel> LrModel::FromBytes(std::span<const std::byte> bytes) {
  auto layout = ParseBlob(bytes);
  if (!layout.ok()) return layout.error();
  LrModel model(layout->dim);
  model.bias_ = layout->bias;
  DecodeWeights(*layout, model.weights_.data());
  return model;
}

Result<std::shared_ptr<const LrModel>> LrModel::FromBytesShared(
    std::span<const std::byte> bytes) {
  auto model = FromBytes(bytes);
  if (!model.ok()) return model.error();
  return std::shared_ptr<const LrModel>(
      std::make_shared<LrModel>(std::move(*model)));
}

Result<ModelView> LrModel::FromBytesView(std::span<const std::byte> bytes,
                                         std::shared_ptr<const void> owner) {
  SIMDC_CHECK(owner != nullptr, "FromBytesView: nothing owns the blob bytes");
  auto layout = ParseBlob(bytes);
  if (!layout.ok()) return layout.error();
  ModelView view;
  // The aliasing shared_ptr holds `owner`, not the bytes it points at.
  view.encoded_ =
      std::shared_ptr<const std::byte>(std::move(owner), layout->payload);
  view.dim_ = layout->dim;
  view.bias_ = layout->bias;
  view.scale_ = layout->scale;
  view.codec_ = layout->codec;
  return view;
}

std::span<const float> ModelView::Weights(std::vector<float>& scratch) const {
  const std::byte* payload = encoded_.get();
  if (codec_ == PayloadCodec::kFp32 &&
      reinterpret_cast<std::uintptr_t>(payload) % alignof(float) == 0) {
    // The encoder memcpy'd these floats into the blob, which implicitly
    // created float objects there; launder reaches them through the byte
    // address.
    return {std::launder(reinterpret_cast<const float*>(payload)), dim_};
  }
  scratch.resize(dim_);
  DecodeWeights({codec_, dim_, bias_, scale_, payload}, scratch.data());
  return {scratch.data(), dim_};
}

}  // namespace simdc::ml
