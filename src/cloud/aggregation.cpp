#include "cloud/aggregation.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "common/thread_pool.h"

namespace simdc::cloud {

namespace {

/// Wall-clock profiling stamps (steady, monotonic). These feed the OPTIME
/// accumulate/bookkeeping split only — never any deterministic surface.
std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

AggregationService::AggregationService(sim::EventLoop& loop,
                                       BlobStore& storage,
                                       AggregationConfig config)
    : loop_(loop),
      storage_(storage),
      config_(config),
      aggregator_(config.model_dim),
      global_model_(config.model_dim) {
  SIMDC_CHECK(config.model_dim > 0, "aggregation needs a model dimension");
}

void AggregationService::Start() {
  if (config_.trigger == AggregationTrigger::kScheduled) ArmSchedule();
}

void AggregationService::OnRoundOpened(SimTime t0) {
  if (!DegradationActive() || stopped_) return;
  if (deadline_event_ != 0) {
    loop_.Cancel(deadline_event_);
    deadline_event_ = 0;
  }
  extensions_used_ = 0;
  // Stale-event guard: the deadline only acts on the round it was armed
  // for. If the trigger closes that round first, history_ grows and the
  // fired event sees the mismatch.
  deadline_round_ = history_.size();
  ArmDeadline(t0 + config_.round_deadline);
}

void AggregationService::ArmDeadline(SimTime when) {
  deadline_event_ = loop_.ScheduleAt(when, [this] { OnDeadline(); });
}

void AggregationService::OnDeadline() {
  deadline_event_ = 0;
  if (stopped_) return;
  if (history_.size() != deadline_round_) return;  // round closed on time
  const SimTime now = loop_.Now();
  if (pending_clients() >= config_.round_quorum) {
    // Quorum met: commit with what arrived — a degraded round, counted
    // before the aggregate so the on_aggregate callback (which may read
    // the counter to book degradation metrics) sees it.
    ++deadline_commits_;
    if (!AggregateAt(now)) --deadline_commits_;
    return;
  }
  const SimDuration extension = config_.round_extension > 0
                                    ? config_.round_extension
                                    : config_.round_deadline;
  if (extensions_used_ < config_.max_round_extensions) {
    ++extensions_used_;
    ++round_extensions_;
    ArmDeadline(now + extension);
    return;
  }
  // Extensions exhausted below quorum: abort. The partial accumulator is
  // discarded (those updates trained against a model this round will never
  // publish) and the driver advances via the abort callback.
  ++aborted_rounds_;
  DiscardPending();
  aggregator_.Reset();
  if (on_round_aborted_) on_round_aborted_(now);
}

void AggregationService::ArmSchedule() {
  loop_.ScheduleAfter(config_.schedule_period, [this] {
    if (stopped_) return;
    AggregateNow();
    const bool more =
        config_.max_rounds == 0 || history_.size() < config_.max_rounds;
    if (more) ArmSchedule();
  });
}

void AggregationService::DeliverDecodedBatch(
    std::span<const flow::DecodedUpdate> updates,
    std::span<const SimTime> arrivals) {
  SIMDC_CHECK(updates.size() == arrivals.size(),
              "AggregationService: tick span size mismatch ("
                  << updates.size() << " updates, " << arrivals.size()
                  << " arrivals)");
  const std::uint64_t t0 = NowNs();
  const std::uint64_t accumulate0 = serial_accumulate_ns_;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    DeliverDecodedOne(updates[i], arrivals[i]);
  }
  const std::uint64_t total = NowNs() - t0;
  const std::uint64_t accumulate = serial_accumulate_ns_ - accumulate0;
  serial_bookkeeping_ns_ += total > accumulate ? total - accumulate : 0;
}

void AggregationService::DeliverDecodedOne(const flow::DecodedUpdate& update,
                                           SimTime arrival) {
  if (stopped_) return;
  ++messages_received_;

  // Staleness verdict FIRST, then the deferred decode failure commits — a
  // stale update with a bad payload is a stale rejection, never a decode
  // failure.
  if (config_.reject_stale && update.message.round != history_.size()) {
    ++stale_rejections_;
    return;
  }

  if (!update.decoded()) {
    SIMDC_CHECK(update.failure != flow::DecodedUpdate::Failure::kNone,
                "AggregationService: update " << update.message.id.ToString()
                                              << " was never decoded");
    if (update.failure == flow::DecodedUpdate::Failure::kStoreError) {
      ++store_errors_;
      SIMDC_LOG(kWarn, "AggregationService")
          << "store error serving payload for " << update.message.id.ToString()
          << ": " << update.error.ToString();
      return;
    }
    ++decode_failures_;
    if (update.failure == flow::DecodedUpdate::Failure::kMissingBlob) {
      SIMDC_LOG(kWarn, "AggregationService")
          << "missing payload blob for " << update.message.id.ToString()
          << ": " << update.error.ToString();
    } else {
      SIMDC_LOG(kWarn, "AggregationService")
          << "undecodable model from " << update.message.device.ToString()
          << ": " << update.error.ToString();
    }
    return;
  }

  const std::size_t samples =
      update.message.sample_count > 0 ? update.message.sample_count : 1;
  // A model of the wrong dimension decoded but cannot be accumulated: it
  // books as a decode failure here, in delivery order, so the O(dim) add
  // can be deferred to the flush. (Zero samples cannot reach Add: the
  // floor above is 1.)
  if (update.model.dim() != config_.model_dim) {
    ++decode_failures_;
    return;
  }
  pending_.push_back({update.model, samples});
  staged_samples_ += samples;
  ++staged_clients_;
  if (update.model.owns_weights()) ++staged_owned_;

  if (config_.trigger == AggregationTrigger::kSampleThreshold &&
      pending_samples() >= config_.sample_threshold) {
    // The round closes on the crossing update, mid-batch if need be, so
    // later updates in the tick see the advanced round for their staleness
    // verdicts. Its timestamp is that update's arrival: inside a tick the
    // loop clock still sits at the tick start.
    AggregateAt(std::max(arrival, loop_.Now()));
    return;
  }
  if (staged_owned_ >= kFlushCap) FlushPending();
}

void AggregationService::FlushPending() {
  if (pending_.empty()) return;
  const std::uint64_t t0 = NowNs();
  SIMDC_DCHECK(staged_owned_ <= pending_.size(),
               "FlushPending: " << staged_owned_ << " owning views among "
                                << pending_.size() << " staged updates");
  const std::size_t clients_before = aggregator_.clients();
  const std::size_t samples_before = aggregator_.total_samples();
  const std::size_t lanes =
      pool_ ? std::min({pool_->size(), pending_.size(), kMaxLanes})
            : std::size_t{1};
  if (lanes <= 1) {
    for (const StagedUpdate& staged : pending_) {
      // Dim was checked at admission and samples >= 1, so Add cannot fail.
      const Status added = aggregator_.Add(
          staged.model.weights(), staged.model.bias(), staged.samples);
      SIMDC_CHECK(added.ok(), "FlushPending: staged add failed: "
                                  << added.error().ToString());
    }
  } else {
    while (partials_.size() < lanes) {
      partials_.emplace_back(config_.model_dim);
    }
    const std::size_t chunk = (pending_.size() + lanes - 1) / lanes;
    pool_->ParallelFor(lanes, [&](std::size_t lane) {
      const std::size_t begin = lane * chunk;
      const std::size_t end = std::min(begin + chunk, pending_.size());
      ml::FedAvgAggregator& partial = partials_[lane];
      for (std::size_t i = begin; i < end; ++i) {
        const StagedUpdate& staged = pending_[i];
        const Status added = partial.Add(
            staged.model.weights(), staged.model.bias(), staged.samples);
        SIMDC_CHECK(added.ok(), "FlushPending: partial add failed: "
                                    << added.error().ToString());
      }
    });
    // Fixed ascending-lane reduction. The cascade is order-invariant, so
    // this order is a convention, not a correctness requirement — but a
    // fixed order keeps the internal cascade bits deterministic run-to-run.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      aggregator_.MergeFrom(partials_[lane]);
      partials_[lane].Reset();
    }
  }
  // Live accounting invariant: the flush moves exactly the staged totals
  // into the aggregator, whatever the lane split.
  SIMDC_DCHECK(aggregator_.clients() == clients_before + staged_clients_ &&
                   aggregator_.total_samples() ==
                       samples_before + staged_samples_,
               "FlushPending: aggregator grew by "
                   << aggregator_.clients() - clients_before << " clients / "
                   << aggregator_.total_samples() - samples_before
                   << " samples, staged " << staged_clients_ << " / "
                   << staged_samples_);
  ++flushes_;
  DiscardPending();
  serial_accumulate_ns_ += NowNs() - t0;
}

void AggregationService::DiscardPending() {
  pending_.clear();
  staged_samples_ = 0;
  staged_clients_ = 0;
  staged_owned_ = 0;
}

AggregationSnapshot AggregationService::Snapshot() const {
  AggregationSnapshot s;
  s.history = history_;
  s.messages_received = messages_received_;
  s.decode_failures = decode_failures_;
  s.stale_rejections = stale_rejections_;
  s.store_errors = store_errors_;
  s.deadline_commits = deadline_commits_;
  s.round_extensions = round_extensions_;
  s.aborted_rounds = aborted_rounds_;
  s.model_dim = global_model_.dim();
  s.global_weights.assign(global_model_.weights().begin(),
                          global_model_.weights().end());
  s.global_bias = global_model_.bias();
  // Canonical accumulator view: staged-but-unflushed updates are folded
  // serially into a copy, so the snapshot is a total function of the
  // service and never references payload models. At quiescent boundaries
  // (where checkpoints are cut) pending_ is empty and this is a plain copy.
  ml::FedAvgAggregator merged = aggregator_;
  for (const StagedUpdate& staged : pending_) {
    const Status added = merged.Add(staged.model.weights(),
                                    staged.model.bias(), staged.samples);
    SIMDC_CHECK(added.ok(), "Snapshot: staged add failed: "
                                << added.error().ToString());
  }
  s.accumulator.assign(merged.accumulator().begin(),
                       merged.accumulator().end());
  s.accumulator_c1.assign(merged.compensation1().begin(),
                          merged.compensation1().end());
  s.accumulator_c2.assign(merged.compensation2().begin(),
                          merged.compensation2().end());
  s.bias_accumulator = merged.bias_accumulator();
  s.bias_accumulator_c1 = merged.bias_compensation1();
  s.bias_accumulator_c2 = merged.bias_compensation2();
  s.accumulator_samples = merged.total_samples();
  s.accumulator_clients = merged.clients();
  return s;
}

void AggregationService::RestoreSnapshot(const AggregationSnapshot& snapshot) {
  SIMDC_CHECK(snapshot.model_dim == config_.model_dim,
              "AggregationService::RestoreSnapshot: dimension mismatch ("
                  << snapshot.model_dim << " vs " << config_.model_dim << ")");
  history_ = snapshot.history;
  messages_received_ = static_cast<std::size_t>(snapshot.messages_received);
  decode_failures_ = static_cast<std::size_t>(snapshot.decode_failures);
  stale_rejections_ = static_cast<std::size_t>(snapshot.stale_rejections);
  store_errors_ = static_cast<std::size_t>(snapshot.store_errors);
  deadline_commits_ = static_cast<std::size_t>(snapshot.deadline_commits);
  round_extensions_ = static_cast<std::size_t>(snapshot.round_extensions);
  aborted_rounds_ = static_cast<std::size_t>(snapshot.aborted_rounds);
  ml::LrModel model(snapshot.model_dim);
  std::copy(snapshot.global_weights.begin(), snapshot.global_weights.end(),
            model.weights().begin());
  model.bias() = snapshot.global_bias;
  global_model_ = std::move(model);
  // The snapshot already holds the canonical merged accumulator (staged
  // entries folded in at Snapshot time), so recovery starts with nothing
  // staged.
  DiscardPending();
  aggregator_.Restore(snapshot.accumulator, snapshot.accumulator_c1,
                      snapshot.accumulator_c2, snapshot.bias_accumulator,
                      snapshot.bias_accumulator_c1,
                      snapshot.bias_accumulator_c2,
                      static_cast<std::size_t>(snapshot.accumulator_samples),
                      static_cast<std::size_t>(snapshot.accumulator_clients));
}

bool AggregationService::AggregateAt(SimTime when) {
  if (pending_clients() == 0) return false;
  if (config_.max_rounds != 0 && history_.size() >= config_.max_rounds) {
    return false;
  }
  FlushPending();
  auto model = aggregator_.Aggregate();
  if (!model.ok()) return false;

  AggregationRecord record;
  record.round = history_.size() + 1;
  record.time = when;
  record.clients = aggregator_.clients();
  record.samples = aggregator_.total_samples();
  record.model_blob = storage_.Put(model->ToBytes());

  global_model_ = std::move(*model);
  aggregator_.Reset();
  history_.push_back(record);
  // The round closed: retire its deadline before on_aggregate_ runs — the
  // callback chain may open the next round (OnRoundOpened), and that fresh
  // deadline must survive this cleanup.
  if (deadline_event_ != 0) {
    loop_.Cancel(deadline_event_);
    deadline_event_ = 0;
  }
  extensions_used_ = 0;
  if (on_aggregate_) on_aggregate_(record, global_model_);
  return true;
}

}  // namespace simdc::cloud
