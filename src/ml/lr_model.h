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
// memory plane, with dequantization running in the parallel decode plane
// (cloud::BlobModelDecoder → FromBytesView). Decoding auto-detects the
// codec from the blob header, so mixed-codec stores decode uniformly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
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

/// Read-only decoded model blob (see LrModel::FromBytesView): the form the
/// payload plane stages and FedAvg accumulates from. fp32 weights alias
/// the blob's bytes in place; fp16/int8 weights are dequantized once into
/// a buffer the view owns, as are fp32 weights copied from misaligned or
/// unowned input. Either way the view shares ownership of what backs its
/// weights, so it stays valid and bit-stable for as long as it is held,
/// whatever happens to the store the blob came from. Copying is one
/// shared_ptr copy.
class ModelView {
 public:
  ModelView() = default;

  std::uint32_t dim() const { return dim_; }
  float bias() const { return bias_; }
  std::span<const float> weights() const { return {weights_.get(), dim_}; }
  /// True when the weights live in a buffer this view allocated; false
  /// when they alias the blob's bytes (or the view is empty). Holding an
  /// aliasing view keeps alive only memory its owner keeps anyway, which
  /// is why cloud::AggregationService's flush cap counts owning views only.
  bool owns_weights() const { return owns_weights_; }
  /// False only for a default-constructed (empty) view.
  explicit operator bool() const { return weights_ != nullptr; }

 private:
  friend class LrModel;
  ModelView(std::shared_ptr<const float> weights, std::uint32_t dim,
            float bias, bool owns_weights)
      : weights_(std::move(weights)),
        dim_(dim),
        bias_(bias),
        owns_weights_(owns_weights) {}

  std::shared_ptr<const float> weights_;
  std::uint32_t dim_ = 0;
  float bias_ = 0.0f;
  bool owns_weights_ = false;
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

  void SetZero() {
    std::fill(weights_.begin(), weights_.end(), 0.0f);
    bias_ = 0.0f;
  }

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
  /// Header-validated view decode — the entry point of the parallel
  /// payload plane (flow::DecodedUpdate). Same validation (same routine,
  /// same error codes) and bits as FromBytes. `owner` keeps `bytes` alive:
  /// when it is set and the fp32 weights are float-aligned in `bytes`, the
  /// view aliases them and holds `owner` — no copy; otherwise (fp16/int8,
  /// no owner, misaligned input) the weights are decoded into a buffer the
  /// view owns (ModelView::owns_weights). For kFp16/kInt8 blobs this is
  /// where dequantization runs — on the shard workers, in parallel.
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
