#include "cloud/payload_decoder.h"

#include <utility>

namespace simdc::cloud {

flow::DecodedUpdate BlobModelDecoder::Decode(flow::Message message) const {
  flow::DecodedUpdate update;
  update.message = std::move(message);
  auto blob = storage_->GetShared(update.message.payload);
  if (!blob.ok()) {
    // kNotFound is the semantic miss (reclaimed / never-written payload);
    // anything else is the store failing to serve a blob it may well hold
    // — a different animal for failure accounting.
    update.failure = blob.error().code() == ErrorCode::kNotFound
                         ? flow::DecodedUpdate::Failure::kMissingBlob
                         : flow::DecodedUpdate::Failure::kStoreError;
    update.error = blob.error();
    return update;
  }
  auto model = ml::LrModel::FromBytesView(blob->span(), blob->holder());
  if (!model.ok()) {
    update.failure = flow::DecodedUpdate::Failure::kUndecodable;
    update.error = model.error();
    return update;
  }
  update.model = std::move(*model);
  return update;
}

}  // namespace simdc::cloud
