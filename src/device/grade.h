// Device grades and their resource/runtime characteristics.
//
// The paper's experiments (§VI-A2) categorize devices into two grades:
//   High — 4 CPU cores + 12 GB memory in logical simulation; physical
//          phones with more than 8 GB memory;
//   Low  — 1 CPU core + 6 GB memory; phones with less than 8 GB memory.
// The hybrid allocation optimizer additionally needs per-grade runtime
// parameters measured "through empirical values or pre-experimental
// measurements" (§IV-B): α (average logical-simulation duration), β
// (average physical-device duration) and λ (compute-framework startup
// time on phones).
#pragma once

#include <cstddef>
#include <string_view>

namespace simdc::device {

enum class DeviceGrade { kHigh, kLow };

constexpr std::string_view ToString(DeviceGrade grade) {
  return grade == DeviceGrade::kHigh ? "High" : "Low";
}

constexpr std::size_t kNumGrades = 2;

constexpr std::size_t GradeIndex(DeviceGrade grade) {
  return grade == DeviceGrade::kHigh ? 0 : 1;
}

constexpr DeviceGrade GradeFromIndex(std::size_t index) {
  return index == 0 ? DeviceGrade::kHigh : DeviceGrade::kLow;
}

/// Static description of one grade used by schedulers and the allocator.
struct GradeSpec {
  DeviceGrade grade = DeviceGrade::kHigh;

  /// k_i: unit resource bundles one simulated device of this grade takes
  /// in logical simulation (the paper's allocation model).
  std::size_t unit_bundles = 1;

  /// α_i: average seconds for one scheduled batch on logical simulation.
  double alpha_s = 1.0;
  /// β_i: average seconds for one batch on a physical phone.
  double beta_s = 1.0;
  /// λ_i: startup seconds of the on-phone compute framework (APK launch).
  double lambda_s = 0.0;
};

/// Paper-calibrated defaults. α/β/λ are chosen so that, per Fig. 7, the
/// APK startup dominates at small scales (physical slower) while the
/// native device operator wins per-round at large scales.
constexpr GradeSpec HighGradeSpec() {
  GradeSpec spec;
  spec.grade = DeviceGrade::kHigh;
  spec.unit_bundles = 8;  // paper §IV-B example: k = 8 unit bundles
  spec.alpha_s = 2.4;
  spec.beta_s = 1.6;
  spec.lambda_s = 15.0;
  return spec;
}

constexpr GradeSpec LowGradeSpec() {
  GradeSpec spec;
  spec.grade = DeviceGrade::kLow;
  spec.unit_bundles = 4;
  spec.alpha_s = 5.2;
  spec.beta_s = 3.8;
  spec.lambda_s = 21.0;
  return spec;
}

constexpr GradeSpec DefaultGradeSpec(DeviceGrade grade) {
  return grade == DeviceGrade::kHigh ? HighGradeSpec() : LowGradeSpec();
}

}  // namespace simdc::device
