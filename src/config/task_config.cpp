#include "config/task_config.h"

#include <algorithm>
#include <initializer_list>

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
  if (auto priority = GetInt(doc, "task", "priority"); priority.ok()) {
    task.priority = static_cast<int>(*priority);
  }
  if (auto rounds = GetInt(doc, "task", "rounds"); rounds.ok()) {
    if (*rounds <= 0) return InvalidArgument("[task] rounds must be >= 1");
    task.rounds = static_cast<std::size_t>(*rounds);
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
    if (auto q = GetInt(doc, section, "benchmarking"); q.ok()) {
      requirement.benchmarking_phones = static_cast<std::size_t>(*q);
    }
    if (auto f = GetInt(doc, section, "logical_bundles"); f.ok()) {
      requirement.logical_bundles = static_cast<std::size_t>(*f);
    }
    if (auto m = GetInt(doc, section, "phones"); m.ok()) {
      requirement.phones = static_cast<std::size_t>(*m);
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
    if (auto thresholds = GetSizeList(doc, "traffic", "thresholds");
        thresholds.ok()) {
      for (std::size_t t : *thresholds) {
        if (t == 0) return InvalidArgument("[traffic] threshold 0 invalid");
      }
      realtime.thresholds = *thresholds;
    }
    if (auto p = GetDouble(doc, "traffic", "failure_probability"); p.ok()) {
      if (*p < 0.0 || *p > 1.0) {
        return InvalidArgument("[traffic] failure_probability out of [0,1]");
      }
      realtime.failure_probability = *p;
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
    if (auto p = GetDouble(doc, "traffic", "failure_probability"); p.ok()) {
      failure = *p;
    }
    std::size_t discard = 0;
    if (auto d = GetInt(doc, "traffic", "random_discard"); d.ok()) {
      discard = static_cast<std::size_t>(*d);
    }
    flow::TimePointDispatch points;
    for (std::size_t i = 0; i < at->size(); ++i) {
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
    if (auto s = GetDouble(doc, "traffic", "sigma"); s.ok()) {
      if (*s <= 0.0) return InvalidArgument("[traffic] sigma must be > 0");
      sigma = *s;
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
    if (auto s = GetDouble(doc, "traffic", "interval_s"); s.ok()) {
      if (*s <= 0.0) return InvalidArgument("[traffic] interval_s must be > 0");
      interval.interval = Seconds(*s);
    }
    if (auto p = GetDouble(doc, "traffic", "failure_probability"); p.ok()) {
      if (*p < 0.0 || *p > 1.0) {
        return InvalidArgument("[traffic] failure_probability out of [0,1]");
      }
      interval.failure_probability = *p;
    }
    return flow::DispatchStrategy(interval);
  }

  return InvalidArgument("[traffic] unknown strategy '" + *kind + "'");
}

Result<cloud::AggregationConfig> LoadAggregation(const IniDocument& doc,
                                                 std::uint32_t model_dim) {
  cloud::AggregationConfig config;
  config.model_dim = model_dim;
  auto trigger = GetString(doc, "aggregation", "trigger");
  if (!trigger.ok()) return trigger.error();
  const std::string kind = Lower(*trigger);
  if (kind == "scheduled") {
    config.trigger = cloud::AggregationTrigger::kScheduled;
    auto period = GetDouble(doc, "aggregation", "period_s");
    if (!period.ok()) return period.error();
    if (*period <= 0.0) {
      return InvalidArgument("[aggregation] period_s must be > 0");
    }
    config.schedule_period = Seconds(*period);
  } else if (kind == "sample_threshold") {
    config.trigger = cloud::AggregationTrigger::kSampleThreshold;
    auto threshold = GetInt(doc, "aggregation", "threshold");
    if (!threshold.ok()) return threshold.error();
    if (*threshold <= 0) {
      return InvalidArgument("[aggregation] threshold must be > 0");
    }
    config.sample_threshold = static_cast<std::size_t>(*threshold);
  } else {
    return InvalidArgument("[aggregation] unknown trigger '" + *trigger + "'");
  }
  if (auto stale = GetInt(doc, "aggregation", "reject_stale"); stale.ok()) {
    config.reject_stale = *stale != 0;
  }
  return config;
}

Result<ExecutionConfig> LoadExecution(const IniDocument& doc) {
  ExecutionConfig config;
  const auto section = doc.find("execution");
  const bool has_section = section != doc.end();
  // Keys of removed knobs are refused by name instead of being ignored
  // like other unknown keys: a spec that pinned one expects a behavior
  // the engine no longer offers.
  for (const char* removed : {"decode_plane", "aggregate_plane"}) {
    if (has_section && section->second.contains(removed)) {
      return InvalidArgument(std::string("[execution] ") + removed +
                             " was removed: every run now decodes at "
                             "dispatch time and aggregates through staged "
                             "partial sums; delete the key");
    }
  }
  if (auto parallelism = GetInt(doc, "execution", "parallelism");
      parallelism.ok()) {
    if (*parallelism < 0) {
      return InvalidArgument("[execution] parallelism must be >= 0");
    }
    config.parallelism = static_cast<std::size_t>(*parallelism);
  } else if (has_section && parallelism.error().code() != ErrorCode::kNotFound) {
    return parallelism.error();
  }
  if (auto shards = GetInt(doc, "execution", "shards"); shards.ok()) {
    if (*shards < 0) {
      return InvalidArgument("[execution] shards must be >= 0");
    }
    config.shards = static_cast<std::size_t>(*shards);
  } else if (has_section && shards.error().code() != ErrorCode::kNotFound) {
    return shards.error();
  }
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
  } else if (has_section && codec.error().code() != ErrorCode::kNotFound) {
    return codec.error();
  }
  if (auto reclaim = GetInt(doc, "execution", "reclaim_payload_blobs");
      reclaim.ok()) {
    config.reclaim_payload_blobs = *reclaim != 0;
  } else if (has_section && reclaim.error().code() != ErrorCode::kNotFound) {
    return reclaim.error();
  }
  if (auto durability = GetString(doc, "execution", "durability");
      durability.ok()) {
    const std::string name = Lower(*durability);
    if (name == "off") {
      config.durability = persist::DurabilityMode::kOff;
    } else if (name == "log") {
      config.durability = persist::DurabilityMode::kLog;
    } else if (name == "log+checkpoint") {
      config.durability = persist::DurabilityMode::kLogCheckpoint;
    } else {
      return InvalidArgument(
          "[execution] durability must be 'off', 'log' or 'log+checkpoint', "
          "got '" +
          *durability + "'");
    }
  } else if (has_section && durability.error().code() != ErrorCode::kNotFound) {
    return durability.error();
  }
  if (auto dir = GetString(doc, "execution", "durability_dir"); dir.ok()) {
    config.durability_dir = *dir;
  } else if (has_section && dir.error().code() != ErrorCode::kNotFound) {
    return dir.error();
  }
  if (config.durability != persist::DurabilityMode::kOff &&
      config.durability_dir.empty()) {
    return InvalidArgument(
        "[execution] durability_dir is required when durability is not off");
  }
  if (auto quorum = GetInt(doc, "execution", "round_quorum"); quorum.ok()) {
    if (*quorum < 0) {
      return InvalidArgument("[execution] round_quorum must be >= 0");
    }
    config.round_quorum = static_cast<std::size_t>(*quorum);
  } else if (has_section && quorum.error().code() != ErrorCode::kNotFound) {
    return quorum.error();
  }
  if (auto deadline = GetDouble(doc, "execution", "round_deadline_s");
      deadline.ok()) {
    if (*deadline < 0.0) {
      return InvalidArgument("[execution] round_deadline_s must be >= 0");
    }
    config.round_deadline = Seconds(*deadline);
  } else if (has_section && deadline.error().code() != ErrorCode::kNotFound) {
    return deadline.error();
  }
  if (auto extension = GetDouble(doc, "execution", "round_extension_s");
      extension.ok()) {
    if (*extension < 0.0) {
      return InvalidArgument("[execution] round_extension_s must be >= 0");
    }
    config.round_extension = Seconds(*extension);
  } else if (has_section && extension.error().code() != ErrorCode::kNotFound) {
    return extension.error();
  }
  if (auto max_ext = GetInt(doc, "execution", "max_round_extensions");
      max_ext.ok()) {
    if (*max_ext < 0) {
      return InvalidArgument("[execution] max_round_extensions must be >= 0");
    }
    config.max_round_extensions = static_cast<std::size_t>(*max_ext);
  } else if (has_section && max_ext.error().code() != ErrorCode::kNotFound) {
    return max_ext.error();
  }
  return config;
}

namespace {

/// Shared helper for [behavior]/[link] probability knobs: value must lie
/// in [0, 1]; NotFound keeps the default.
Result<bool> LoadUnitDouble(const IniDocument& doc, const std::string& section,
                            const std::string& key, bool has_section,
                            double* out) {
  if (auto value = GetDouble(doc, section, key); value.ok()) {
    if (*value < 0.0 || *value > 1.0) {
      return InvalidArgument("[" + section + "] " + key + " out of [0,1]");
    }
    *out = *value;
    return true;
  } else if (has_section && value.error().code() != ErrorCode::kNotFound) {
    return value.error();
  }
  return false;
}

/// Non-negative duration knob in seconds; NotFound keeps the default.
Result<bool> LoadDurationS(const IniDocument& doc, const std::string& section,
                           const std::string& key, bool has_section,
                           SimDuration* out) {
  if (auto value = GetDouble(doc, section, key); value.ok()) {
    if (*value < 0.0) {
      return InvalidArgument("[" + section + "] " + key + " must be >= 0");
    }
    *out = Seconds(*value);
    return true;
  } else if (has_section && value.error().code() != ErrorCode::kNotFound) {
    return value.error();
  }
  return false;
}

}  // namespace

Result<device::BehaviorConfig> LoadBehavior(const IniDocument& doc) {
  device::BehaviorConfig config;
  const bool has_section = doc.find("behavior") != doc.end();
  if (!has_section) return config;
  if (auto enabled = GetInt(doc, "behavior", "enabled"); enabled.ok()) {
    config.enabled = *enabled != 0;
  } else if (enabled.error().code() != ErrorCode::kNotFound) {
    return enabled.error();
  }
  if (auto seed = GetInt(doc, "behavior", "seed"); seed.ok()) {
    if (*seed < 0) return InvalidArgument("[behavior] seed must be >= 0");
    config.seed = static_cast<std::uint64_t>(*seed);
  } else if (seed.error().code() != ErrorCode::kNotFound) {
    return seed.error();
  }
  struct UnitKnob {
    const char* key;
    double* out;
  };
  for (const UnitKnob& knob : std::initializer_list<UnitKnob>{
           {"mean_availability", &config.mean_availability},
           {"diurnal_amplitude", &config.diurnal_amplitude},
           {"diurnal_phase", &config.diurnal_phase},
           {"churn_rate", &config.churn_rate},
           {"rejoin_fraction", &config.rejoin_fraction},
           {"min_battery", &config.min_battery},
           {"link_base_failure", &config.link_base_failure},
           {"link_diurnal_swing", &config.link_diurnal_swing}}) {
    if (auto loaded =
            LoadUnitDouble(doc, "behavior", knob.key, true, knob.out);
        !loaded.ok()) {
      return loaded.error();
    }
  }
  struct DurationKnob {
    const char* key;
    SimDuration* out;
  };
  for (const DurationKnob& knob : std::initializer_list<DurationKnob>{
           {"diurnal_period_s", &config.diurnal_period},
           {"churn_horizon_s", &config.churn_horizon},
           {"churn_downtime_s", &config.churn_downtime},
           {"battery_period_s", &config.battery_period}}) {
    if (auto loaded = LoadDurationS(doc, "behavior", knob.key, true, knob.out);
        !loaded.ok()) {
      return loaded.error();
    }
  }
  return config;
}

Result<flow::LinkPolicy> LoadLinkPolicy(const IniDocument& doc) {
  flow::LinkPolicy policy;
  const bool has_section = doc.find("link") != doc.end();
  if (!has_section) return policy;
  if (auto loaded =
          LoadUnitDouble(doc, "link", "transient_failure_probability", true,
                         &policy.transient_failure_probability);
      !loaded.ok()) {
    return loaded.error();
  }
  if (auto attempts = GetInt(doc, "link", "max_attempts"); attempts.ok()) {
    if (*attempts < 1) {
      return InvalidArgument("[link] max_attempts must be >= 1");
    }
    policy.max_attempts = static_cast<std::size_t>(*attempts);
  } else if (attempts.error().code() != ErrorCode::kNotFound) {
    return attempts.error();
  }
  if (auto loaded = LoadDurationS(doc, "link", "backoff_initial_s", true,
                                  &policy.backoff_initial);
      !loaded.ok()) {
    return loaded.error();
  }
  if (auto multiplier = GetDouble(doc, "link", "backoff_multiplier");
      multiplier.ok()) {
    if (*multiplier < 1.0) {
      return InvalidArgument("[link] backoff_multiplier must be >= 1");
    }
    policy.backoff_multiplier = *multiplier;
  } else if (multiplier.error().code() != ErrorCode::kNotFound) {
    return multiplier.error();
  }
  if (auto loaded = LoadDurationS(doc, "link", "backoff_max_s", true,
                                  &policy.backoff_max);
      !loaded.ok()) {
    return loaded.error();
  }
  if (auto loaded = LoadDurationS(doc, "link", "upload_deadline_s", true,
                                  &policy.upload_deadline);
      !loaded.ok()) {
    return loaded.error();
  }
  return policy;
}

Result<sched::TaskSpec> ParseTaskSpec(std::string_view text) {
  auto doc = ParseIni(text);
  if (!doc.ok()) return doc.error();
  return LoadTaskSpec(*doc);
}

Result<TenantSpecConfig> LoadTenantSpec(const IniDocument& doc) {
  TenantSpecConfig config;
  auto spec = LoadTaskSpec(doc);
  if (!spec.ok()) return spec.error();
  config.spec = std::move(*spec);
  if (doc.find("traffic") != doc.end()) {
    auto strategy = LoadStrategy(doc);
    if (!strategy.ok()) return strategy.error();
    config.strategy = std::move(*strategy);
    config.has_strategy = true;
  }
  auto link = LoadLinkPolicy(doc);
  if (!link.ok()) return link.error();
  config.link = *link;
  auto behavior = LoadBehavior(doc);
  if (!behavior.ok()) return behavior.error();
  config.behavior = *behavior;
  auto execution = LoadExecution(doc);
  if (!execution.ok()) return execution.error();
  config.execution = std::move(*execution);
  if (doc.find("aggregation") != doc.end()) {
    // model_dim is the dataset's business, not the spec's; 0 here, the
    // engine fills it when the experiment is assembled.
    auto aggregation = LoadAggregation(doc, 0);
    if (!aggregation.ok()) return aggregation.error();
    config.trigger = aggregation->trigger;
    config.sample_threshold = aggregation->sample_threshold;
    config.schedule_period = aggregation->schedule_period;
    config.reject_stale = aggregation->reject_stale;
  }
  return config;
}

}  // namespace simdc::config
