#include "cep/simd.h"

#include <cstdlib>

#include "common/logging.h"

namespace epl::cep::simd {
namespace {

void ScalarAndNotInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    dst[w] &= ~src[w];
  }
}

void ScalarAndRows(uint64_t* rows, size_t stride_words, size_t num_rows,
                   const uint64_t* src, size_t words) {
  for (size_t r = 0; r < num_rows; ++r) {
    uint64_t* row = rows + r * stride_words;
    for (size_t w = 0; w < words; ++w) {
      row[w] &= src[w];
    }
  }
}

bool ScalarGateColumn(const uint64_t* rows, size_t stride_words, size_t count,
                      uint32_t word, uint64_t mask, uint64_t* out) {
  const uint64_t* cell = rows + word;
  uint64_t any = 0;
  for (size_t base = 0; base < count; base += 64) {
    const size_t limit = count - base < 64 ? count - base : 64;
    uint64_t bits = 0;
    for (size_t i = 0; i < limit; ++i) {
      bits |= static_cast<uint64_t>((cell[(base + i) * stride_words] & mask) !=
                                    0)
              << i;
    }
    out[base / 64] = bits;
    any |= bits;
  }
  return any != 0;
}

const Kernels kScalarKernels = {
    Dispatch::kScalar, "scalar",         ScalarAndNotInto,
    ScalarAndRows,     ScalarGateColumn,
};

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool ForceScalarFromEnv() {
  const char* value = std::getenv("EPL_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

/// Process-wide selection, made exactly once (first Active() call).
const Kernels* SelectKernels() {
  if (ForceScalarFromEnv()) {
    return &kScalarKernels;
  }
  const Kernels* avx2 = internal::Avx2KernelsOrNull();
  if (avx2 != nullptr && CpuHasAvx2()) {
    return avx2;
  }
  return &kScalarKernels;
}

/// Test override; nullptr outside SetDispatchForTest sessions.
const Kernels* g_override = nullptr;

}  // namespace

const Kernels& Active() {
  static const Kernels* selected = SelectKernels();
  return g_override != nullptr ? *g_override : *selected;
}

const char* DispatchName() { return Active().name; }

bool Avx2Available() {
  return internal::Avx2KernelsOrNull() != nullptr && CpuHasAvx2();
}

const Kernels& ScalarKernels() { return kScalarKernels; }

const Kernels& Avx2Kernels() {
  EPL_CHECK(Avx2Available()) << "AVX2 kernels unavailable on this machine";
  return *internal::Avx2KernelsOrNull();
}

void SetDispatchForTest(std::optional<Dispatch> dispatch) {
  if (!dispatch.has_value()) {
    g_override = nullptr;
    return;
  }
  g_override =
      *dispatch == Dispatch::kAvx2 ? &Avx2Kernels() : &kScalarKernels;
}

}  // namespace epl::cep::simd
