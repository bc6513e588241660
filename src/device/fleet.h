// Fleet factories for the physical devices cluster.
//
// §VI-A2: "In the physical devices cluster, we have a default configuration
// of 10 local physical devices and 20 remote MSP devices. ... the physical
// devices are divided into High (4 devices, with more than 8 GB memory) and
// Low (6 devices, with less than 8 GB memory) grades. MSP devices are also
// categorized into High (13 devices) and Low (7 devices) grades."
#pragma once

#include <cstdint>
#include <vector>

#include "device/phone.h"

namespace simdc::device {

/// Builds `high` + `low` local phone specs with model/memory/frequency
/// diversity (deterministic in `seed`).
std::vector<PhoneSpec> MakeLocalFleet(std::size_t high, std::size_t low,
                                      std::uint64_t seed,
                                      std::uint64_t first_id);

/// Builds remote MSP phone specs (remote_msp = true).
std::vector<PhoneSpec> MakeMspFleet(std::size_t high, std::size_t low,
                                    std::uint64_t seed,
                                    std::uint64_t first_id);

/// The paper's default cluster, which core::Platform registers: 10 local
/// (4 High / 6 Low, ids 0-9, drawn from `seed`) plus 20 MSP (13 High /
/// 7 Low, ids 1000-1019, drawn from `seed ^ 0x5555AAAA`).
std::vector<PhoneSpec> MakeDefaultCluster(std::uint64_t seed);

}  // namespace simdc::device
