// Aggregator checkpoints: the snapshot half of the durable cloud store.
//
// A checkpoint is one flat CRC-framed image of everything the cloud plane
// needs to resume an experiment at a round boundary: the engine's round /
// id cursors, the AggregationService (history, counters, accumulated
// FedAvg state, published global model bits), the engine's own round rows
// (cloud::RoundMetrics; no mirror type), the merged dispatch-stats prefix,
// and the cloud metrics database rows. The blob store itself is NOT in
// the checkpoint — its contents are the blob log's job; the checkpoint
// only pins `log_offset`, the durable log size its state corresponds to.
//
// File image:
//
//   [u32 magic "SDCP"][u32 version][payload][u32 crc32(magic..payload)]
//
// Publication is atomic: write checkpoint.tmp (+fsync), demote the
// previous checkpoint.bin to checkpoint.prev, rename tmp -> bin. Recovery
// tries bin, then tmp (crash landed between the two renames), then prev —
// any image whose CRC validates, and whose pinned log prefix still
// validates, is a consistent resume point, because the log is append-only
// and an older checkpoint just replays a longer suffix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/aggregation.h"
#include "cloud/database.h"
#include "common/clock.h"
#include "common/error.h"
#include "device/perf_sample.h"
#include "flow/device_flow.h"
#include "persist/file_io.h"

namespace simdc::persist {

/// Everything a resumed engine restores before re-entering the round loop.
struct CheckpointState {
  /// Monotonic checkpoint number (diagnostics; recovery picks by file
  /// precedence, not sequence).
  std::uint64_t sequence = 0;
  /// Durable blob-log bytes this state corresponds to. Resume truncates
  /// the log here: records past it belong to the partial round that will
  /// be deterministically re-executed. A checkpoint whose log validates
  /// fewer bytes is passed over for an older one
  /// (DurableStore::BeginResume).
  std::uint64_t log_offset = 0;
  /// Virtual time of the checkpoint (the recorded round's time).
  SimTime time = 0;
  /// t0 of the round a resumed engine opens first (round
  /// `rounds_started`).
  SimTime resume_t0 = 0;
  /// Mirror of `rounds_started` that the v3 layout keeps, as is
  /// `last_recorded_round`: the engine writes all three from its one
  /// round cursor and reads back only `rounds_started`.
  std::uint64_t next_round = 0;
  /// True when no messages were in flight at the boundary (emitted ==
  /// delivered + dropped). Bit-identical resume is only guaranteed from
  /// quiescent boundaries; recovery surfaces the flag so callers can
  /// assert it.
  bool quiescent = true;
  std::uint64_t next_message_id = 1;
  std::uint64_t next_blob_id = 1;
  std::uint64_t rounds_started = 0;
  std::uint64_t last_recorded_round = 0;
  std::uint64_t messages_emitted = 0;
  /// BlobStore cumulative traffic counters (contents come from the log).
  std::uint64_t storage_bytes_written = 0;
  std::uint64_t storage_bytes_read = 0;
  /// Payload blob ids of the round preceding round `rounds_started`, pending
  /// deletion at its start (reclaim_payload_blobs bookkeeping).
  std::vector<BlobId> pending_delete_blobs;
  cloud::AggregationSnapshot aggregation;
  /// The engine's recorded rounds (core::RoundMetrics) up to the boundary.
  std::vector<cloud::RoundMetrics> rounds;
  /// Merged dispatch-stats prefix up to the boundary; the resumed engine
  /// concatenates its fresh stats after it (all later ticks stamp >= time,
  /// so prefix order is the global merge order).
  flow::DispatchStats dispatch;
  std::vector<cloud::ScalarRow> scalars;
  std::vector<device::PerfSample> perf_samples;
};

/// Flat CRC-framed image of `state` (see file-image comment above).
std::vector<std::byte> SerializeCheckpoint(const CheckpointState& state);

/// Validates magic/version/CRC and decodes. Any malformed image — torn,
/// truncated, bit-flipped, or CRC-valid with a global-weight or
/// accumulator list whose length is not aggregation.model_dim — returns
/// an error, never UB.
Result<CheckpointState> DeserializeCheckpoint(
    std::span<const std::byte> bytes);

/// File names inside a durability directory.
std::string CheckpointPath(const std::string& dir);
std::string CheckpointTmpPath(const std::string& dir);
std::string CheckpointPrevPath(const std::string& dir);
std::string BlobLogPath(const std::string& dir);

/// Atomically publishes `state` as `dir`'s checkpoint (tmp + demote +
/// rename; see file comment for the crash windows each step tolerates).
Status WriteCheckpoint(FileIo& io, const std::string& dir,
                       const CheckpointState& state);

/// One checkpoint file whose image validates.
struct CheckpointImage {
  std::string path;
  CheckpointState state;
};

/// Every checkpoint image in `dir` that validates, in recovery precedence
/// (bin, then tmp, then prev). Unreadable, torn or corrupt files are
/// skipped.
std::vector<CheckpointImage> LoadCheckpoints(FileIo& io,
                                             const std::string& dir);

/// The first of LoadCheckpoints. kNotFound when no file yields a valid
/// image.
Result<CheckpointState> LoadLatestCheckpoint(FileIo& io,
                                             const std::string& dir);

}  // namespace simdc::persist
