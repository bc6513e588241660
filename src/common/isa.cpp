#include "common/isa.h"

namespace simdc {

const char* ToString(Isa isa) {
  switch (isa) {
    case Isa::kPortable: return "portable";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool Supports(Isa isa) {
  if (isa == Isa::kPortable) return true;
#ifdef SIMDC_ISA_AVX2
  // Explicit init: the first caller may run inside a static initializer,
  // before libgcc's own CPU-detection constructor.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

Isa DispatchedIsa() {
  return Supports(Isa::kAvx2) ? Isa::kAvx2 : Isa::kPortable;
}

}  // namespace simdc
