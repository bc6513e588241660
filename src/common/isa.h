// Instruction-set dispatch for the hand-vectorized kernels.
//
// A kernel with ISA variants compiles one always-inline loop body twice:
// once for the build's own target flags and once under
// __attribute__((target("avx2"))), with no intrinsics and without fma, so
// both variants compute the same bits as a scalar reference. The variant a
// process runs is picked once, from CPUID, through this one probe: the
// FedAvg cascade kernels (ml/fedavg.h) and the int8 payload quantizer
// (ml/lr_model.h) share it. There is no option to force a variant; the
// parity tests run each one this CPU supports explicitly.
#pragma once

#include <cstdint>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
/// Defined where kernels compile a target("avx2") variant.
#define SIMDC_ISA_AVX2 1
#endif

namespace simdc {

enum class Isa : std::uint8_t {
  /// Compiled for the build's own target flags (SSE2 on default x86-64).
  /// Every CPU runs it.
  kPortable,
  /// x86 AVX2 without fma: 256-bit vectors. Absent from non-x86 builds.
  kAvx2,
};
const char* ToString(Isa isa);
/// Whether this build has `isa`'s variants and this CPU can run them.
bool Supports(Isa isa);
/// The variant the dispatched kernels run: kAvx2 where Supports(kAvx2),
/// else kPortable.
Isa DispatchedIsa();

}  // namespace simdc
