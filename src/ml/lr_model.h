// Logistic-regression CTR model over hashed sparse features.
//
// The paper (§VI-A) trains LR with FedAvg (learning rate 1e-3, 10 local
// epochs) because "the industry currently favors simpler and more efficient
// models for CTR prediction in edge-cloud scenarios". The model is a dense
// weight vector over the feature-hashing space plus a bias.
//
// Payload codecs: device→cloud update blobs can be serialized at three
// precisions (FlExperimentConfig::payload_codec). kFp32 is the historical
// wire format, byte-identical to what ToBytes always produced; kFp16 and
// kInt8 (per-tensor scale) cut payload bytes 2×/4× for the million-device
// memory plane. A decoded view (FromBytesView) keeps every codec's weights
// in the blob; dequantization runs where they are read, in the FedAvg
// flush lanes (ModelView::Weights). Decoding auto-detects the codec from
// the blob header, so mixed-codec stores decode uniformly.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/isa.h"
#include "common/restrict.h"
#include "data/example.h"

namespace simdc::ml {

/// Wire precision of a serialized model blob.
enum class PayloadCodec : std::uint8_t {
  /// dim:u32, bias:f32, weights:dim×f32 — the historical format, bit-
  /// identical to pre-codec blobs (no header tag, for compatibility).
  kFp32 = 0,
  /// IEEE 754 half-precision weights (round-to-nearest-even): ~2× smaller.
  kFp16 = 1,
  /// Symmetric per-tensor int8: scale = max|w|/127, w ≈ q·scale: ~4× smaller.
  kInt8 = 2,
};

const char* ToString(PayloadCodec codec);

namespace kernels {

/// The quantizer behind PayloadCodec::kInt8: writes one code per weight to
/// `codes` and returns the scale, max finite |w| / 127 (+0 when every
/// finite weight is zero). A finite weight's code is w / scale rounded
/// half away from zero and clamped to [-127, 127]; NaN encodes as 0 and
/// ±inf as ±127. Runs the DispatchedIsa() variant (common/isa.h): one
/// branch-free loop body, compiled portable and for AVX2, that writes the
/// bytes the scalar std::lround loop of tests/reference_codec.h writes.
float QuantizeInt8(const float* SIMDC_RESTRICT weights, std::size_t n,
                   std::int8_t* SIMDC_RESTRICT codes);
/// QuantizeInt8 through the `isa` variant, which must be Supported
/// (SIMDC_CHECK): the parity tests pin each variant this CPU can run.
float QuantizeInt8(Isa isa, const float* SIMDC_RESTRICT weights,
                   std::size_t n, std::int8_t* SIMDC_RESTRICT codes);

}  // namespace kernels

/// Read-only decoded model blob (see LrModel::FromBytesView): the form the
/// payload plane stages and FedAvg accumulates from. Whatever the codec,
/// the view aliases the blob's first encoded weight and shares ownership
/// of the bytes behind it, so it stays valid and bit-stable for as long as
/// it is held, whatever happens to the store the blob came from, and keeps
/// alive no memory of its own. Copying is one shared_ptr copy.
class ModelView {
 public:
  ModelView() = default;

  std::uint32_t dim() const { return dim_; }
  float bias() const { return bias_; }
  /// The weights as fp32: float-aligned fp32 weights are read in place;
  /// anything else (fp16/int8, or fp32 at a misaligned address) is decoded
  /// into `scratch`, which is resized to dim() and which the result then
  /// aliases. Same bits as LrModel::FromBytes either way.
  std::span<const float> Weights(std::vector<float>& scratch) const;
  /// False only for a default-constructed (empty) view.
  explicit operator bool() const { return encoded_ != nullptr; }

 private:
  friend class LrModel;

  std::shared_ptr<const std::byte> encoded_;
  std::uint32_t dim_ = 0;
  float bias_ = 0.0f;
  /// kInt8 only: the per-tensor dequantization scale.
  float scale_ = 0.0f;
  PayloadCodec codec_ = PayloadCodec::kFp32;
};

class LrModel {
 public:
  explicit LrModel(std::uint32_t dim) : weights_(dim, 0.0f) {}

  std::uint32_t dim() const { return static_cast<std::uint32_t>(weights_.size()); }

  /// Raw score (log-odds) for an example.
  double Score(const data::Example& example) const {
    double s = bias_;
    for (std::uint32_t idx : example.features) {
      SIMDC_DCHECK(idx < weights_.size(),
                   "LrModel::Score: feature index " << idx
                       << " out of range for dim " << weights_.size());
      s += weights_[idx];
    }
    return s;
  }

  /// Click probability.
  double Predict(const data::Example& example) const {
    return 1.0 / (1.0 + std::exp(-Score(example)));
  }

  std::span<float> weights() { return weights_; }
  std::span<const float> weights() const { return weights_; }
  float& bias() { return bias_; }
  float bias() const { return bias_; }

  /// L2 distance to another model (same dim required).
  double DistanceTo(const LrModel& other) const;

  /// Wire format (see PayloadCodec) — the blob devices upload to storage.
  std::vector<std::byte> ToBytes(PayloadCodec codec = PayloadCodec::kFp32) const;
  /// Serializes in place into `out`, which must be exactly
  /// EncodedSize(codec) bytes — the zero-allocation path the engine uses to
  /// write each payload straight into its reserved blob-store arena slot.
  void EncodeTo(std::span<std::byte> out, PayloadCodec codec) const;
  /// Codec-aware decode: auto-detects the wire format from the header.
  static Result<LrModel> FromBytes(std::span<const std::byte> bytes);
  /// Shared-ownership decode: same validation and bits as FromBytes, one
  /// owned copy behind a shared_ptr.
  static Result<std::shared_ptr<const LrModel>> FromBytesShared(
      std::span<const std::byte> bytes);
  /// Header-validated view decode — what cloud::AggregationService runs on
  /// each payload it fetches when it admits a message. Same validation
  /// (same routine, same error codes) as FromBytes; no weight is decoded
  /// here. `owner` keeps `bytes` alive and must be set: the view holds it
  /// and reads its weights out of `bytes` (ModelView::Weights).
  static Result<ModelView> FromBytesView(std::span<const std::byte> bytes,
                                         std::shared_ptr<const void> owner);

  /// Serialized size in bytes (what DeviceFlow/storage accounting uses).
  std::size_t SerializedSize() const {
    return sizeof(std::uint32_t) + sizeof(float) +
           weights_.size() * sizeof(float);
  }
  /// Serialized size under `codec`.
  std::size_t EncodedSize(PayloadCodec codec) const;

 private:
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

}  // namespace simdc::ml
