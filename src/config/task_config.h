// Spec front end: textual task specifications.
//
// In the paper, users configure "device simulation targets, cloud service
// parameters, resource requirements, and operator flow configurations via
// the front-end graphical user interface" (§III-C). Headless deployments
// need the same information as data; this module parses a small INI-style
// format straight into the engine's types — sched::TaskSpec and
// core::FlExperimentConfig, one core::TenantTask per spec — with strict
// validation so malformed specs are rejected with precise errors.
// Every optional key follows one rule: a missing key (or section) keeps
// its default, a malformed value is a ParseError, and a value out of range
// is InvalidArgument. Counts are non-negative integers, probabilities lie
// in [0, 1], and `_s` durations are seconds, at most 1e12.
//
// Example:
//
//   [task]
//   name = nightly-ctr
//   priority = 5
//   rounds = 10
//
//   [devices.high]
//   count = 500
//   benchmarking = 5
//   logical_bundles = 100
//   phones = 12
//
//   [devices.low]
//   count = 500
//   benchmarking = 5
//   logical_bundles = 100
//   phones = 8
//
//   [traffic]
//   strategy = interval
//   curve = normal
//   sigma = 1.0
//   interval_s = 60
//   failure_probability = 0.05
//
//   [aggregation]
//   trigger = scheduled
//   period_s = 120
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "cloud/aggregation.h"
#include "common/error.h"
#include "core/multi_tenant.h"
#include "device/behavior.h"
#include "flow/device_flow.h"
#include "flow/strategy.h"
#include "sched/task.h"

namespace simdc::config {

/// Parsed INI document: section → (key → value). Later duplicate keys win.
using IniDocument = std::map<std::string, std::map<std::string, std::string>>;

/// Parses INI text: `[section]` headers, `key = value` pairs, `#`/`;`
/// comments, blank lines. Keys outside a section go to section "".
Result<IniDocument> ParseIni(std::string_view text);

/// Typed accessors (NotFound / ParseError on failure).
Result<std::string> GetString(const IniDocument& doc,
                              const std::string& section,
                              const std::string& key);
Result<std::int64_t> GetInt(const IniDocument& doc, const std::string& section,
                            const std::string& key);
Result<double> GetDouble(const IniDocument& doc, const std::string& section,
                         const std::string& key);
/// Comma-separated list of non-negative integers.
Result<std::vector<std::size_t>> GetSizeList(const IniDocument& doc,
                                             const std::string& section,
                                             const std::string& key);

/// Builds a TaskSpec from the [task] and [devices.*] sections.
/// The task id is left unassigned (the platform assigns it on submit).
Result<sched::TaskSpec> LoadTaskSpec(const IniDocument& doc);

/// Builds a DeviceFlow strategy from the [traffic] section.
/// strategy = realtime | points | interval
///   realtime: thresholds = 20,100,50   failure_probability = 0.1
///   points:   at_s = 10,25,40          counts = 200,600,400
///             failure_probability, random_discard (optional)
///   interval: curve = normal|right_tail|sin|cos|pow2|pow10|diurnal
///             sigma (normal/right_tail), interval_s, failure_probability
Result<flow::DispatchStrategy> LoadStrategy(const IniDocument& doc);

/// Reads the [aggregation] section into the FlExperimentConfig fields it
/// names: trigger = scheduled | sample_threshold (required), with
/// period_s (into schedule_period) or threshold (into sample_threshold);
/// reject_stale = 0|1. The engine takes the model dimension from the
/// dataset.
Status LoadAggregation(const IniDocument& doc,
                       core::FlExperimentConfig* config);

/// Reads the optional [execution] section into the FlExperimentConfig
/// fields it names: shards = N, payload_codec = fp32|fp16|int8,
/// reclaim_payload_blobs = 0|1, durability = off|log+checkpoint and
/// durability_dir = path (into durability.mode and .dir; log+checkpoint
/// needs a dir), round_quorum = N, round_deadline_s = S,
/// round_extension_s = S, max_round_extensions = N. Every other field, and
/// every missing key, keeps its default; malformed or negative values are
/// rejected, and so are the removed parallelism, decode_plane and
/// aggregate_plane keys and the removed durability = log mode.
Result<core::FlExperimentConfig> LoadExecution(const IniDocument& doc);

/// Reads the optional [behavior] section into a device::BehaviorConfig
/// (enabled = 0|1, seed, mean_availability, diurnal_amplitude,
/// diurnal_period_s, diurnal_phase, churn_rate, churn_horizon_s,
/// rejoin_fraction, churn_downtime_s, min_battery, battery_period_s,
/// link_base_failure, link_diurnal_swing). A missing section yields the
/// disabled default; probabilities must lie in [0, 1].
Result<device::BehaviorConfig> LoadBehavior(const IniDocument& doc);

/// Reads the optional [link] section into a flow::LinkPolicy
/// (transient_failure_probability, max_attempts, backoff_initial_s,
/// backoff_multiplier, backoff_max_s, upload_deadline_s). A missing
/// section yields the inactive default.
Result<flow::LinkPolicy> LoadLinkPolicy(const IniDocument& doc);

/// One-call convenience: parse text and build the TaskSpec.
Result<sched::TaskSpec> ParseTaskSpec(std::string_view text);

/// Loads one tenant from a spec document: `spec` from [task]/[devices.*]
/// (required), and the experiment it runs in `fl` — `rounds` from [task],
/// then [traffic], [link], [behavior], [execution] and [aggregation], each
/// optional. An absent section keeps FlExperimentConfig's default (for
/// [traffic], the pass-through RealtimeAccumulated{{1}}); a malformed
/// present section is an error, never silently defaulted. Each spec loads
/// into its own TenantTask, so two specs run two policies side by side.
/// The caller sets the seed, the task id and the dataset.
Result<core::TenantTask> LoadTenantSpec(const IniDocument& doc);

}  // namespace simdc::config
