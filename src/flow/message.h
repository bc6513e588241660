// Messages flowing from simulated devices to cloud services.
//
// §V-A: "When edge devices collaborate with cloud services, they typically
// upload computation results to storage upon task completion and transmit
// messages to cloud services. Cloud services then retrieve the
// corresponding data from storage based on the received messages." A
// Message therefore carries a *reference* to the payload blob, not the
// payload itself. Every delivered message travels inside a
// DecodedUpdate, so a Message holds only what the flow plane and the
// cloud read: routing keys, the blob reference and the sample count.
#pragma once

#include <cstddef>

#include "common/ids.h"

namespace simdc::flow {

struct Message {
  MessageId id;
  /// Routing key: the Sorter shelves messages by task (§V-A).
  TaskId task;
  DeviceId device;
  /// Operator-flow round this result belongs to.
  std::size_t round = 0;
  /// Blob in cloud storage holding the uploaded result (model update).
  BlobId payload;
  /// Local training samples behind this update (drives sample-threshold
  /// aggregation, Fig. 9a).
  std::size_t sample_count = 0;
};

}  // namespace simdc::flow
