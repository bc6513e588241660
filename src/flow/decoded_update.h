// Decoded-payload delivery plane: the unit of flow::CloudEndpoint's one
// delivery hook. Every dispatch tick reaches its sink as one owned vector
// of DecodedUpdates, built once by the dispatcher and moved to whatever
// consumes it; each update carries its own arrival stamp. A dispatcher
// with a PayloadDecoder fills the payloads; one without hands over updates
// that carry only their message and stamp (decoded() false, failure
// kNone) — the traffic sinks that count arrivals and never read a payload.
// cloud::AggregationService always sits behind a decoder.
//
// §V-A messages carry a *reference* to the payload blob (see message.h),
// which makes fetch + decode embarrassingly parallel work: nothing about
// turning a BlobId into an ml::LrModel depends on delivery order, only the
// accumulate does. The decoded plane exploits that seam — dispatchers
// fetch-and-decode speculatively at dispatch-tick time (on shard worker
// threads when fleets are sharded), and the serial cloud side receives
// DecodedUpdates it only has to admit and accumulate. This is the
// parameter-server decode-offload discipline: parallel produce (decode),
// fixed-order reduce (FedAvg). The "decode" is a header validation: the
// update's weights alias the stored blob whatever the codec, and the
// FedAvg flush lanes read fp32 weights in place and dequantize fp16/int8
// ones there.
//
// The decode is *speculative* in two ways, both deliberate:
//   1. It runs before the cloud's staleness verdict, so a stale update is
//      decoded and then discarded. Correctness is unaffected (blobs are
//      immutable once Put) and the wasted decode is parallel-side work.
//   2. Its failure accounting is DEFERRED: a decode failure counts only
//      after the reject_stale check and in delivery order, so a
//      DecodedUpdate carries the error and the serial accumulate point
//      commits the counter — a stale message with a corrupt blob counts as
//      a stale rejection, never a decode failure.
#pragma once

#include "common/clock.h"
#include "common/error.h"
#include "flow/message.h"
#include "ml/lr_model.h"

namespace simdc::flow {

/// A device→cloud message whose payload blob has already been fetched and
/// decoded — or whose fetch/decode failed, with the failure captured for
/// deferred, delivery-ordered accounting at the serial accumulate point —
/// or, behind a decoder-less dispatcher, the bare message.
struct DecodedUpdate {
  /// Where the speculative fetch + decode gave up (kNone on success).
  /// kMissingBlob is strictly "the store answered kNotFound" (reclaimed or
  /// never-written payload); kStoreError is any other store failure (an
  /// I/O fault from the durability plane) — the two are accounted in
  /// different counters at the serial commit point.
  enum class Failure { kNone, kMissingBlob, kUndecodable, kStoreError };

  Message message;
  /// When the update reaches the cloud: its capacity-spaced slot in the
  /// dispatch tick, or the time of the retry that delivered it.
  SimTime arrival = 0;
  /// Decoded payload, aliasing the stored blob's encoded weights; empty
  /// when failure != kNone or when no decoder ran. The view shares
  /// ownership of the blob's bytes; the cloud moves it into its staging
  /// list.
  ml::ModelView model;
  Failure failure = Failure::kNone;
  /// Failure detail for the warning the serial side logs on commit.
  Status error = Status::Ok();

  bool decoded() const { return static_cast<bool>(model); }
};

/// Fetch-and-decode seam between the flow plane and payload storage.
/// Implementations MUST be safe to call concurrently: sharded fleets decode
/// from N shard loops advancing in parallel on the worker pool
/// (sim::LockstepGroup). The canonical implementation is
/// cloud::BlobModelDecoder (shared-ownership blob fetch + view decode).
class PayloadDecoder {
 public:
  virtual ~PayloadDecoder() = default;

  /// Fetches and decodes `message`'s payload blob, consuming the message
  /// into the returned update. Never throws on bad payloads — failures are
  /// data, carried to the serial accumulate point.
  virtual DecodedUpdate Decode(Message message) const = 0;
};

}  // namespace simdc::flow
