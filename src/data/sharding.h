// Deterministic device-shard partitioning for multi-fleet execution.
//
// The engine splits a FederatedDataset's device list across one or more
// fleet shards. The partition is the determinism anchor of the whole
// shard plane: shards are CONTIGUOUS index ranges, so per-shard message
// streams stay sorted by the globally (wave, device)-ordered message ids
// and a merge keyed on (tick time, first message id, shard) reproduces at
// every width exactly the FIFO tie-breaks of a single shard. Any non-contiguous assignment (round-robin, hashing)
// would break that per-stream sortedness.
#pragma once

#include <cstddef>
#include <vector>

#include "data/example.h"

namespace simdc::data {

/// One shard's half-open device-index range [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool contains(std::size_t device_index) const {
    return device_index >= begin && device_index < end;
  }
};

/// Splits `num_devices` device indices into `shards` contiguous,
/// near-equal ranges (earlier shards take the remainder, so sizes differ
/// by at most one). `shards` is clamped to [1, num_devices] — asking for
/// more fleets than devices yields one device per fleet, never an empty
/// shard. Deterministic: depends only on the two arguments.
std::vector<ShardRange> PartitionDevices(std::size_t num_devices,
                                         std::size_t shards);

/// Shard index owning `device_index` under PartitionDevices(n, shards).
/// O(1) — derived from the same arithmetic, not a scan.
std::size_t ShardOf(std::size_t device_index, std::size_t num_devices,
                    std::size_t shards);

/// Convenience overload partitioning a dataset's device list.
inline std::vector<ShardRange> PartitionDevices(const FederatedDataset& dataset,
                                                std::size_t shards) {
  return PartitionDevices(dataset.devices.size(), shards);
}

}  // namespace simdc::data
