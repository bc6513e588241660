// Test-side int8 codec oracle: the scalar encoder behind
// ml::PayloadCodec::kInt8 as it was first written, a float max-abs scan
// over the finite weights and then one std::lround per weight, with
// branches for non-finite input. ml::kernels::QuantizeInt8 computes the
// same scale and codes at vector width; every variant the CPU runs must
// reproduce this loop byte for byte.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace simdc::reference {

/// Symmetric per-tensor int8 quantization: scale = max finite |w| / 127 (0
/// when every finite weight is zero), NaN encodes as 0, ±inf saturates to
/// ±127, and every finite weight rounds half away from zero.
struct Int8Codes {
  float scale = 0.0f;
  std::vector<std::int8_t> codes;
};

inline Int8Codes QuantizeInt8(std::span<const float> weights) {
  float max_abs = 0.0f;
  for (float w : weights) {
    if (!std::isfinite(w)) continue;
    const float a = std::fabs(w);
    if (a > max_abs) max_abs = a;
  }
  Int8Codes out;
  out.scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
  out.codes.reserve(weights.size());
  for (float w : weights) {
    int q = 0;
    if (std::isinf(w)) {
      q = std::signbit(w) ? -127 : 127;
    } else if (std::isfinite(w) && out.scale > 0.0f) {
      const float scaled = w / out.scale;
      q = scaled >= 127.0f   ? 127
          : scaled <= -127.0f ? -127
                              : static_cast<int>(std::lround(scaled));
    }
    out.codes.push_back(static_cast<std::int8_t>(q));
  }
  return out;
}

/// The whole kInt8 blob: "SDCQ" magic, codec tag 2, dim, bias, scale, then
/// one code per weight, every field little-endian.
inline std::vector<std::byte> Int8Blob(std::span<const float> weights,
                                       float bias) {
  const Int8Codes q = QuantizeInt8(weights);
  std::vector<std::byte> blob;
  auto append = [&blob](const auto& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    blob.insert(blob.end(), p, p + sizeof(value));
  };
  append(std::uint32_t{0x51434453});
  append(std::uint32_t{2});
  append(static_cast<std::uint32_t>(weights.size()));
  append(bias);
  append(q.scale);
  for (const std::int8_t code : q.codes) append(code);
  return blob;
}

}  // namespace simdc::reference
