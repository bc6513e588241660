// Canonical flow::PayloadDecoder over cloud storage: shared-ownership blob
// fetch (BlobStore::GetShared — no payload copy) + header-validated view
// decode (ml::LrModel::FromBytesView — every codec's weights stay in the
// blob, and the view holds its slab or buffer alive).
//
// This is the shard-side half of the decoded payload plane (§V-A storage
// references make decode order-free work): dispatchers call Decode at
// dispatch-tick time, concurrently from N shard loops when fleets advance
// in lockstep on the worker pool. Thread safety comes for free — BlobStore
// is internally locked, blobs are immutable once Put, and the decoder
// itself is stateless.
#pragma once

#include "cloud/storage.h"
#include "flow/decoded_update.h"

namespace simdc::cloud {

class BlobModelDecoder final : public flow::PayloadDecoder {
 public:
  explicit BlobModelDecoder(const BlobStore& storage) : storage_(&storage) {}

  /// Never logs and never counts: failures are carried inside the update
  /// so the serial accumulate point can commit them after the staleness
  /// verdict, in delivery order (see flow::DecodedUpdate).
  flow::DecodedUpdate Decode(flow::Message message) const override;

 private:
  const BlobStore* storage_;
};

}  // namespace simdc::cloud
