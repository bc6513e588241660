// Messages flowing from simulated devices to cloud services.
//
// §V-A: "When edge devices collaborate with cloud services, they typically
// upload computation results to storage upon task completion and transmit
// messages to cloud services. Cloud services then retrieve the
// corresponding data from storage based on the received messages." A
// Message therefore carries a *reference* to the payload blob, not the
// payload itself: the cloud fetches the blob when it admits the message.
// A dispatch tick is a vector of Messages, each stamped with its arrival,
// so a Message holds only what the flow plane and the cloud read: routing
// keys, the blob reference, the sample count and the arrival stamp.
#pragma once

#include <cstddef>

#include "common/clock.h"
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
  /// When the message reaches the cloud: stamped by the dispatcher with its
  /// capacity-spaced slot in the dispatch tick, or with the time of the
  /// retry that delivered it. 0 until the message leaves its shelf.
  SimTime arrival = 0;
};

}  // namespace simdc::flow
