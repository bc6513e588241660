#include "config/task_config.h"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/string_util.h"
#include "flow/rate_functions.h"

namespace simdc::config {
namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

constexpr std::int64_t kMinInt = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
constexpr double kMaxReal = std::numeric_limits<double>::max();
/// The smallest double above 0: a range starting here means "> 0".
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
/// One tick of the microsecond clock: the shortest duration, in seconds,
/// that does not round to zero.
constexpr double kOneMicrosecond = 1e-6;

/// The rule every optional key follows, given the key's typed read. A
/// missing key or section yields nullopt, and the caller keeps its
/// default; a malformed value returns its ParseError.
template <typename T>
Result<std::optional<T>> Optional(Result<T> read) {
  if (read.ok()) return std::optional<T>(std::move(*read));
  if (read.error().code() == ErrorCode::kNotFound) return std::optional<T>();
  return read.error();
}

template <typename V>
std::string ValueText(V value) {
  if constexpr (std::is_floating_point_v<V>) return StrFormat("%g", value);
  else return std::to_string(value);
}

/// Loads one optional int64 or double key by the Optional rule, and
/// returns InvalidArgument for a value outside [lo, hi]. The range is
/// checked on the parsed value, before `store` narrows it to the field's
/// type, so -1 can never wrap into a count; NaN is outside every range.
template <typename V, typename Store>
Status LoadOptional(const IniDocument& doc, const std::string& section,
                    const std::string& key, V lo, V hi, Store store) {
  Result<std::optional<V>> value = [&] {
    if constexpr (std::is_floating_point_v<V>) {
      return Optional(GetDouble(doc, section, key));
    } else {
      return Optional(GetInt(doc, section, key));
    }
  }();
  if (!value.ok()) return value.error();
  if (!value->has_value()) return Status::Ok();
  const V v = **value;
  if (!(v >= lo && v <= hi)) {
    return InvalidArgument("[" + section + "] " + key + " = " +
                           ValueText(v) + " is outside [" + ValueText(lo) +
                           ", " + ValueText(hi) + "]");
  }
  store(v);
  return Status::Ok();
}

/// An integer field of at least `lo`, and no more than the field can hold.
template <typename Int>
Status LoadInt(const IniDocument& doc, const std::string& section,
               const std::string& key, Int* out,
               std::int64_t lo = std::numeric_limits<Int>::min()) {
  const auto hi = static_cast<std::int64_t>(
      std::min<std::uint64_t>(std::numeric_limits<Int>::max(), kMaxInt));
  return LoadOptional(doc, section, key, lo, hi,
                      [out](std::int64_t v) { *out = static_cast<Int>(v); });
}

/// A 0|1 switch: any integer, true when non-zero.
Status LoadFlag(const IniDocument& doc, const std::string& section,
                const std::string& key, bool* out) {
  return LoadOptional(doc, section, key, kMinInt, kMaxInt,
                      [out](std::int64_t v) { *out = v != 0; });
}

Status LoadReal(const IniDocument& doc, const std::string& section,
                const std::string& key, double* out, double lo, double hi) {
  return LoadOptional(doc, section, key, lo, hi,
                      [out](double v) { *out = v; });
}

/// A `_s` key: seconds in the spec, a SimDuration in `*out`.
Status LoadSeconds(const IniDocument& doc, const std::string& section,
                   const std::string& key, SimDuration* out,
                   double lo = 0.0) {
  return LoadOptional(doc, section, key, lo, kMaxSeconds,
                      [out](double s) { *out = Seconds(s); });
}

}  // namespace

Result<IniDocument> ParseIni(std::string_view text) {
  IniDocument doc;
  std::string section;
  std::size_t line_number = 0;
  for (const auto& raw_line : SplitLines(text)) {
    ++line_number;
    // Strip comments (# or ;) and whitespace.
    std::string line = raw_line;
    for (const char marker : {'#', ';'}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    const auto trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;

    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        return ParseError(StrFormat("line %zu: malformed section header '%s'",
                                    line_number,
                                    std::string(trimmed).c_str()));
      }
      section = std::string(
          TrimWhitespace(trimmed.substr(1, trimmed.size() - 2)));
      if (section.empty()) {
        return ParseError(StrFormat("line %zu: empty section name", line_number));
      }
      doc[section];  // materialize even if empty
      continue;
    }

    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return ParseError(StrFormat("line %zu: expected 'key = value', got '%s'",
                                  line_number, std::string(trimmed).c_str()));
    }
    const auto key = TrimWhitespace(trimmed.substr(0, eq));
    const auto value = TrimWhitespace(trimmed.substr(eq + 1));
    if (key.empty()) {
      return ParseError(StrFormat("line %zu: empty key", line_number));
    }
    doc[section][std::string(key)] = std::string(value);
  }
  return doc;
}

Result<std::string> GetString(const IniDocument& doc,
                              const std::string& section,
                              const std::string& key) {
  const auto sit = doc.find(section);
  if (sit == doc.end()) return NotFound("missing section [" + section + "]");
  const auto kit = sit->second.find(key);
  if (kit == sit->second.end()) {
    return NotFound("missing key '" + key + "' in [" + section + "]");
  }
  return kit->second;
}

Result<std::int64_t> GetInt(const IniDocument& doc, const std::string& section,
                            const std::string& key) {
  auto text = GetString(doc, section, key);
  if (!text.ok()) return text.error();
  const auto value = ParseInt(*text);
  if (!value) {
    return ParseError("[" + section + "] " + key + " = '" + *text +
                      "' is not an integer");
  }
  return *value;
}

Result<double> GetDouble(const IniDocument& doc, const std::string& section,
                         const std::string& key) {
  auto text = GetString(doc, section, key);
  if (!text.ok()) return text.error();
  const auto value = ParseDouble(*text);
  if (!value) {
    return ParseError("[" + section + "] " + key + " = '" + *text +
                      "' is not a number");
  }
  return *value;
}

Result<std::vector<std::size_t>> GetSizeList(const IniDocument& doc,
                                             const std::string& section,
                                             const std::string& key) {
  auto text = GetString(doc, section, key);
  if (!text.ok()) return text.error();
  std::vector<std::size_t> values;
  for (const auto& field : Split(*text, ',')) {
    const auto value = ParseInt(field);
    if (!value || *value < 0) {
      return ParseError("[" + section + "] " + key + ": bad list element '" +
                        field + "'");
    }
    values.push_back(static_cast<std::size_t>(*value));
  }
  if (values.empty()) {
    return ParseError("[" + section + "] " + key + ": empty list");
  }
  return values;
}

Result<sched::TaskSpec> LoadTaskSpec(const IniDocument& doc) {
  sched::TaskSpec task;
  if (auto name = GetString(doc, "task", "name"); name.ok()) {
    task.name = *name;
  }
  for (const Status& loaded :
       {LoadInt(doc, "task", "priority", &task.priority),
        LoadInt(doc, "task", "rounds", &task.rounds, 1)}) {
    if (!loaded.ok()) return loaded.error();
  }

  for (const auto& [section, keys] : doc) {
    if (!StartsWith(section, "devices.")) continue;
    const std::string grade_name = Lower(section.substr(8));
    sched::DeviceRequirement requirement;
    if (grade_name == "high") {
      requirement.grade = device::DeviceGrade::kHigh;
    } else if (grade_name == "low") {
      requirement.grade = device::DeviceGrade::kLow;
    } else {
      return InvalidArgument("unknown device grade section [" + section + "]");
    }
    auto count = GetInt(doc, section, "count");
    if (!count.ok()) return count.error();
    if (*count < 0) return InvalidArgument("[" + section + "] count < 0");
    requirement.num_devices = static_cast<std::size_t>(*count);
    for (const Status& loaded :
         {LoadInt(doc, section, "benchmarking",
                  &requirement.benchmarking_phones),
          LoadInt(doc, section, "logical_bundles",
                  &requirement.logical_bundles),
          LoadInt(doc, section, "phones", &requirement.phones)}) {
      if (!loaded.ok()) return loaded.error();
    }
    if (requirement.benchmarking_phones > requirement.num_devices) {
      return InvalidArgument("[" + section + "] benchmarking > count");
    }
    task.requirements.push_back(requirement);
  }
  if (task.requirements.empty()) {
    return InvalidArgument("task spec has no [devices.*] section");
  }
  return task;
}

Result<flow::DispatchStrategy> LoadStrategy(const IniDocument& doc) {
  auto kind = GetString(doc, "traffic", "strategy");
  if (!kind.ok()) return kind.error();
  const std::string strategy = Lower(*kind);

  if (strategy == "realtime") {
    flow::RealtimeAccumulated realtime;
    auto thresholds = Optional(GetSizeList(doc, "traffic", "thresholds"));
    if (!thresholds.ok()) return thresholds.error();
    if (thresholds->has_value()) {
      for (std::size_t t : **thresholds) {
        if (t == 0) return InvalidArgument("[traffic] threshold 0 invalid");
      }
      realtime.thresholds = **thresholds;
    }
    if (Status loaded = LoadReal(doc, "traffic", "failure_probability",
                                 &realtime.failure_probability, 0.0, 1.0);
        !loaded.ok()) {
      return loaded.error();
    }
    return flow::DispatchStrategy(realtime);
  }

  if (strategy == "points") {
    auto at = GetSizeList(doc, "traffic", "at_s");
    if (!at.ok()) return at.error();
    auto counts = GetSizeList(doc, "traffic", "counts");
    if (!counts.ok()) return counts.error();
    if (at->size() != counts->size()) {
      return InvalidArgument("[traffic] at_s and counts length mismatch");
    }
    double failure = 0.0;
    std::size_t discard = 0;
    for (const Status& loaded :
         {LoadReal(doc, "traffic", "failure_probability", &failure, 0.0, 1.0),
          LoadInt(doc, "traffic", "random_discard", &discard)}) {
      if (!loaded.ok()) return loaded.error();
    }
    flow::TimePointDispatch points;
    for (std::size_t i = 0; i < at->size(); ++i) {
      if ((*at)[i] > kMaxSeconds) {
        return InvalidArgument("[traffic] at_s must be <= 1e12");
      }
      flow::TimePoint point;
      point.when = Seconds(static_cast<double>((*at)[i]));
      point.relative = true;
      point.count = (*counts)[i];
      point.failure_probability = failure;
      point.random_discard = discard;
      points.points.push_back(point);
    }
    return flow::DispatchStrategy(points);
  }

  if (strategy == "interval") {
    flow::TimeIntervalDispatch interval;
    double sigma = 1.0;
    for (const Status& loaded :
         {LoadReal(doc, "traffic", "sigma", &sigma, kAboveZero, kMaxReal),
          LoadSeconds(doc, "traffic", "interval_s", &interval.interval,
                      kOneMicrosecond),
          LoadReal(doc, "traffic", "failure_probability",
                   &interval.failure_probability, 0.0, 1.0)}) {
      if (!loaded.ok()) return loaded.error();
    }
    auto curve = GetString(doc, "traffic", "curve");
    if (!curve.ok()) return curve.error();
    const std::string name = Lower(*curve);
    if (name == "normal") {
      interval.rate = flow::NormalCurve(sigma);
    } else if (name == "right_tail") {
      interval.rate = flow::RightTailedNormal(sigma);
    } else if (name == "sin") {
      interval.rate = flow::SinPlusOne();
    } else if (name == "cos") {
      interval.rate = flow::CosPlusOne();
    } else if (name == "pow2") {
      interval.rate = flow::TwoPowT();
    } else if (name == "pow10") {
      interval.rate = flow::TenPowT();
    } else if (name == "diurnal") {
      interval.rate = flow::DiurnalCurve();
    } else {
      return InvalidArgument("[traffic] unknown curve '" + *curve + "'");
    }
    return flow::DispatchStrategy(interval);
  }

  return InvalidArgument("[traffic] unknown strategy '" + *kind + "'");
}

Status LoadAggregation(const IniDocument& doc,
                       core::FlExperimentConfig* config) {
  auto trigger = GetString(doc, "aggregation", "trigger");
  if (!trigger.ok()) return trigger.error();
  const std::string kind = Lower(*trigger);
  if (kind == "scheduled") {
    config->trigger = cloud::AggregationTrigger::kScheduled;
    auto period = GetDouble(doc, "aggregation", "period_s");
    if (!period.ok()) return period.error();
    if (!(*period > 0.0 && *period <= kMaxSeconds)) {
      return InvalidArgument("[aggregation] period_s must be in (0, 1e12]");
    }
    config->schedule_period = Seconds(*period);
  } else if (kind == "sample_threshold") {
    config->trigger = cloud::AggregationTrigger::kSampleThreshold;
    auto threshold = GetInt(doc, "aggregation", "threshold");
    if (!threshold.ok()) return threshold.error();
    if (*threshold <= 0) {
      return InvalidArgument("[aggregation] threshold must be > 0");
    }
    config->sample_threshold = static_cast<std::size_t>(*threshold);
  } else {
    return InvalidArgument("[aggregation] unknown trigger '" + *trigger + "'");
  }
  return LoadFlag(doc, "aggregation", "reject_stale", &config->reject_stale);
}

Result<core::FlExperimentConfig> LoadExecution(const IniDocument& doc) {
  core::FlExperimentConfig config;
  const auto section = doc.find("execution");
  // Keys of removed knobs are refused by name instead of being ignored
  // like other unknown keys: a spec that pinned one expects a behavior
  // the engine no longer offers.
  for (const char* removed : {"decode_plane", "aggregate_plane"}) {
    if (section != doc.end() && section->second.contains(removed)) {
      return InvalidArgument(std::string("[execution] ") + removed +
                             " was removed: every run now fetches each "
                             "payload when the cloud admits its message and "
                             "aggregates through staged partial sums; delete "
                             "the key");
    }
  }
  if (section != doc.end() && section->second.contains("parallelism")) {
    return InvalidArgument(
        "[execution] parallelism was removed: a spec runs as a tenant of a "
        "multi-tenant engine, which trains every tenant on its one pool; "
        "delete the key");
  }
  for (const Status& loaded :
       {LoadInt(doc, "execution", "shards", &config.shards),
        LoadFlag(doc, "execution", "reclaim_payload_blobs",
                 &config.reclaim_payload_blobs),
        LoadInt(doc, "execution", "round_quorum", &config.round_quorum),
        LoadSeconds(doc, "execution", "round_deadline_s",
                    &config.round_deadline),
        LoadSeconds(doc, "execution", "round_extension_s",
                    &config.round_extension),
        LoadInt(doc, "execution", "max_round_extensions",
                &config.max_round_extensions)}) {
    if (!loaded.ok()) return loaded.error();
  }
  // A string key cannot be malformed: GetString fails only when the key
  // is missing, which keeps the default.
  if (auto codec = GetString(doc, "execution", "payload_codec"); codec.ok()) {
    const std::string name = Lower(*codec);
    if (name == "fp32") {
      config.payload_codec = ml::PayloadCodec::kFp32;
    } else if (name == "fp16") {
      config.payload_codec = ml::PayloadCodec::kFp16;
    } else if (name == "int8") {
      config.payload_codec = ml::PayloadCodec::kInt8;
    } else {
      return InvalidArgument(
          "[execution] payload_codec must be 'fp32', 'fp16' or 'int8', got '" +
          *codec + "'");
    }
  }
  if (auto durability = GetString(doc, "execution", "durability");
      durability.ok()) {
    const std::string name = Lower(*durability);
    if (name == "off") {
      config.durability.mode = persist::DurabilityMode::kOff;
    } else if (name == "log+checkpoint") {
      config.durability.mode = persist::DurabilityMode::kLogCheckpoint;
    } else if (name == "log") {
      // A removed mode, refused by name like the removed keys above.
      return InvalidArgument(
          "[execution] durability = log was removed: nothing read a log "
          "without checkpoints back; use 'log+checkpoint' or 'off'");
    } else {
      return InvalidArgument(
          "[execution] durability must be 'off' or 'log+checkpoint', got '" +
          *durability + "'");
    }
  }
  if (auto dir = GetString(doc, "execution", "durability_dir"); dir.ok()) {
    config.durability.dir = *dir;
  }
  if (config.durability.mode != persist::DurabilityMode::kOff &&
      config.durability.dir.empty()) {
    return InvalidArgument(
        "[execution] durability_dir is required when durability is not off");
  }
  return config;
}

Result<device::BehaviorConfig> LoadBehavior(const IniDocument& doc) {
  device::BehaviorConfig config;
  const std::string b = "behavior";
  for (const Status& loaded :
       {LoadFlag(doc, b, "enabled", &config.enabled),
        LoadInt(doc, b, "seed", &config.seed),
        LoadReal(doc, b, "mean_availability", &config.mean_availability, 0, 1),
        LoadReal(doc, b, "diurnal_amplitude", &config.diurnal_amplitude, 0, 1),
        LoadReal(doc, b, "diurnal_phase", &config.diurnal_phase, 0, 1),
        LoadReal(doc, b, "churn_rate", &config.churn_rate, 0, 1),
        LoadReal(doc, b, "rejoin_fraction", &config.rejoin_fraction, 0, 1),
        LoadReal(doc, b, "min_battery", &config.min_battery, 0, 1),
        LoadReal(doc, b, "link_base_failure", &config.link_base_failure, 0, 1),
        LoadReal(doc, b, "link_diurnal_swing", &config.link_diurnal_swing, 0,
                 1),
        LoadSeconds(doc, b, "diurnal_period_s", &config.diurnal_period),
        LoadSeconds(doc, b, "churn_horizon_s", &config.churn_horizon),
        LoadSeconds(doc, b, "churn_downtime_s", &config.churn_downtime),
        LoadSeconds(doc, b, "battery_period_s", &config.battery_period)}) {
    if (!loaded.ok()) return loaded.error();
  }
  return config;
}

Result<flow::LinkPolicy> LoadLinkPolicy(const IniDocument& doc) {
  flow::LinkPolicy policy;
  for (const Status& loaded :
       {LoadReal(doc, "link", "transient_failure_probability",
                 &policy.transient_failure_probability, 0, 1),
        LoadInt(doc, "link", "max_attempts", &policy.max_attempts, 1),
        LoadSeconds(doc, "link", "backoff_initial_s", &policy.backoff_initial),
        LoadReal(doc, "link", "backoff_multiplier", &policy.backoff_multiplier,
                 1, kMaxReal),
        LoadSeconds(doc, "link", "backoff_max_s", &policy.backoff_max),
        LoadSeconds(doc, "link", "upload_deadline_s",
                    &policy.upload_deadline)}) {
    if (!loaded.ok()) return loaded.error();
  }
  return policy;
}

Result<sched::TaskSpec> ParseTaskSpec(std::string_view text) {
  auto doc = ParseIni(text);
  if (!doc.ok()) return doc.error();
  return LoadTaskSpec(*doc);
}

Result<core::TenantTask> LoadTenantSpec(const IniDocument& doc) {
  core::TenantTask tenant;
  auto spec = LoadTaskSpec(doc);
  if (!spec.ok()) return spec.error();
  tenant.spec = std::move(*spec);
  // Sections load in a fixed order, so a spec with several bad sections
  // always reports the same one.
  auto strategy = doc.contains("traffic")
                      ? LoadStrategy(doc)
                      : Result<flow::DispatchStrategy>(tenant.fl.strategy);
  if (!strategy.ok()) return strategy.error();
  auto link = LoadLinkPolicy(doc);
  if (!link.ok()) return link.error();
  auto behavior = LoadBehavior(doc);
  if (!behavior.ok()) return behavior.error();
  auto fl = LoadExecution(doc);
  if (!fl.ok()) return fl.error();
  tenant.fl = std::move(*fl);
  tenant.fl.rounds = tenant.spec.rounds;
  tenant.fl.strategy = std::move(*strategy);
  tenant.fl.link = *link;
  tenant.fl.behavior = *behavior;
  if (doc.contains("aggregation")) {
    if (Status loaded = LoadAggregation(doc, &tenant.fl); !loaded.ok()) {
      return loaded.error();
    }
  }
  return tenant;
}

}  // namespace simdc::config
