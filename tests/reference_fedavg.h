// Test-side FedAvg oracle: the plain serial fetch → decode → add that
// cloud::AggregationService's staged, lane-parallel accumulate must
// reproduce bit for bit. ReplayFedAvg walks one delivery stream in order
// under the service's admission rules — staleness verdict first, then a
// missing, undecodable or wrong-dimension payload books a decode failure
// and any other store fault a store error — and adds every admitted update
// into one ml::FedAvgAggregator, closing a round whenever the sample
// threshold is reached.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "cloud/aggregation.h"
#include "cloud/storage.h"
#include "flow/message.h"
#include "ml/fedavg.h"
#include "ml/lr_model.h"

namespace simdc::reference {

struct FedAvgReplay {
  explicit FedAvgReplay(std::uint32_t dim) : global(dim), open(dim) {}

  std::size_t received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  std::size_t store_errors = 0;
  /// Closed rounds (model_blob is left unset: nothing is published).
  std::vector<cloud::AggregationRecord> history;
  ml::LrModel global;
  /// The open round's accumulator.
  ml::FedAvgAggregator open;
};

/// Closes the open round at `when`; false when nothing was admitted.
inline bool CloseRound(FedAvgReplay& replay, SimTime when) {
  auto model = replay.open.Aggregate();
  if (!model.ok()) return false;
  replay.history.push_back({replay.history.size() + 1, when,
                            replay.open.clients(), replay.open.total_samples(),
                            BlobId()});
  replay.global = std::move(*model);
  replay.open.Reset();
  return true;
}

/// `sample_threshold` 0 never closes a round on its own.
inline FedAvgReplay ReplayFedAvg(const cloud::BlobStore& store,
                                 std::uint32_t dim,
                                 std::span<const flow::Message> messages,
                                 std::span<const SimTime> arrivals,
                                 std::size_t sample_threshold = 0,
                                 bool reject_stale = false) {
  FedAvgReplay replay(dim);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const flow::Message& message = messages[i];
    ++replay.received;
    if (reject_stale && message.round != replay.history.size()) {
      ++replay.stale_rejections;
      continue;
    }
    auto blob = store.Get(message.payload);
    if (!blob.ok()) {
      ++(blob.error().code() == ErrorCode::kNotFound ? replay.decode_failures
                                                     : replay.store_errors);
      continue;
    }
    auto model = ml::LrModel::FromBytes(*blob);
    const std::size_t samples = std::max<std::size_t>(message.sample_count, 1);
    if (!model.ok() || !replay.open.Add(*model, samples).ok()) {
      ++replay.decode_failures;
      continue;
    }
    if (sample_threshold > 0 &&
        replay.open.total_samples() >= sample_threshold) {
      CloseRound(replay, arrivals[i]);
    }
  }
  return replay;
}

}  // namespace simdc::reference
