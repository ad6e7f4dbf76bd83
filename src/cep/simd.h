// Runtime-dispatched SIMD kernels for the flat multi-pattern path.
//
// The two hot loops of the flat runtime share one word-AND shape:
// PredicateBank::EvaluateBatch materializes B result-word rows from
// run-length-compressed memo words (clearing NaN fields' constrained
// bits), and MultiPatternMatcher::ProcessFlatBatch derives the
// per-(gate group, event) gate grid from those rows. Both call the kernel
// table below instead of open-coding scalar loops.
//
// Dispatch model: the kernel set is selected ONCE, at the first Active()
// call, by checking CPUID for AVX2 support; every later call returns the
// same table, so the hot paths pay one pointer load. Setting the
// EPL_FORCE_SCALAR environment variable (non-empty, not "0") pins the
// portable scalar kernels regardless of hardware -- CI runs the tier-1
// suite once in that mode so the fallback can never rot, and the
// differential fuzz harness runs the same seeds under both dispatch modes
// and requires bit-identical match streams.
//
// Every kernel is pure 64-bit bitwise arithmetic: the AVX2 and scalar
// implementations are bit-exact by construction (no floating point, no
// reassociation hazards), which is what lets the dispatch mode be invisible
// to every determinism guarantee in this codebase.
//
// The AVX2 implementations live in exactly one translation unit
// (simd_avx2.cc, the only file compiled with -mavx2), so the ISA flag
// cannot leak vector instructions into code that might execute before the
// CPUID check. On toolchains or targets without AVX2 that TU compiles to a
// stub and the scalar kernels are the only table.

#ifndef EPL_CEP_SIMD_H_
#define EPL_CEP_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <vector>

namespace epl::cep::simd {

enum class Dispatch { kScalar, kAvx2 };

/// The kernel table. Function pointers rather than virtuals: the table is
/// immutable after selection and callers cache one reference per sweep.
struct Kernels {
  Dispatch dispatch = Dispatch::kScalar;
  const char* name = "scalar";

  /// dst[w] &= ~src[w] for w in [0, words) (the NaN clear:
  /// result &= ~constrained).
  void (*andnot_into)(uint64_t* dst, const uint64_t* src, size_t words);

  /// Row broadcast: rows[r * stride_words + w] &= src[w] for every
  /// r in [0, num_rows), w in [0, words). This is EvaluateBatch's kernel:
  /// a run of consecutive in-batch events that stay inside one elementary
  /// region share one memoized region bitset, so the bitset is broadcast
  /// once and ANDed across the whole row block.
  void (*and_rows)(uint64_t* rows, size_t stride_words, size_t num_rows,
                   const uint64_t* src, size_t words);

  /// Gate-grid extraction: packs bit b of `out` (out[b / 64], bit b % 64)
  /// with (rows[b * stride_words + word] & mask) != 0 for b in [0, count);
  /// tail bits of the last out word are zeroed. Returns true when any bit
  /// is set (the group-open summary). `out` must hold (count + 63) / 64
  /// words.
  bool (*gate_column)(const uint64_t* rows, size_t stride_words, size_t count,
                      uint32_t word, uint64_t mask, uint64_t* out);
};

/// The selected kernel table (CPUID once, EPL_FORCE_SCALAR honored).
const Kernels& Active();

/// Name of the active dispatch ("avx2" or "scalar"), for logs and
/// benchmark context blocks.
const char* DispatchName();

/// True when AVX2 kernels exist in this build AND the CPU supports them,
/// regardless of EPL_FORCE_SCALAR. Tests use this to decide whether a
/// scalar-vs-AVX2 differential leg is meaningful on this machine.
bool Avx2Available();

/// The portable kernel table, always available (unit tests compare the
/// vector kernels against it directly).
const Kernels& ScalarKernels();

/// The AVX2 kernel table; EPL_CHECK-fails unless Avx2Available().
const Kernels& Avx2Kernels();

/// Test hook: pins Active() to the given dispatch until called with
/// std::nullopt (which restores the process-wide selection). Fails loudly
/// when kAvx2 is requested but unavailable. Not thread-safe; for
/// single-threaded differential tests only.
void SetDispatchForTest(std::optional<Dispatch> dispatch);

namespace internal {
/// Defined in simd_avx2.cc (the only -mavx2 TU). Returns nullptr when the
/// build carries no AVX2 code paths.
const Kernels* Avx2KernelsOrNull();
}  // namespace internal

// Call-site helpers: below a per-kernel threshold of total words of work,
// an out-of-line dispatched call costs more than the AND loop it replaces,
// so the loop runs inline (the compiler auto-vectorizes it with the
// baseline ISA, which is what the pre-SIMD code paths effectively did);
// bigger jobs go through the dispatched table. The inline loops are
// bitwise-identical to the scalar kernels, so the thresholds are invisible
// to every determinism guarantee -- they only move the inline/dispatch
// boundary.

inline constexpr size_t kInlineAndNotWords = 32;
inline constexpr size_t kInlineRowWords = 256;

/// andnot_into with an inline fast path for narrow rows.
inline void AndNotInto(const Kernels& kernels, uint64_t* dst,
                       const uint64_t* src, size_t words) {
  if (words <= kInlineAndNotWords) {
    for (size_t w = 0; w < words; ++w) {
      dst[w] &= ~src[w];
    }
    return;
  }
  kernels.andnot_into(dst, src, words);
}

/// and_rows with an inline fast path for small row blocks (a short run of
/// narrow rows is a handful of ANDs; the broadcast kernel pays off on
/// long runs or wide banks, where the per-call cost amortizes).
inline void AndRows(const Kernels& kernels, uint64_t* rows,
                    size_t stride_words, size_t num_rows, const uint64_t* src,
                    size_t words) {
  if (num_rows * words <= kInlineRowWords) {
    for (size_t r = 0; r < num_rows; ++r) {
      uint64_t* row = rows + r * stride_words;
      for (size_t w = 0; w < words; ++w) {
        row[w] &= src[w];
      }
    }
    return;
  }
  kernels.and_rows(rows, stride_words, num_rows, src, words);
}

/// gate_column with an inline fast path for small windows (one indirect
/// call per gate group per window only amortizes once the column spans
/// more than a word of events).
inline bool GateColumn(const Kernels& kernels, const uint64_t* rows,
                       size_t stride_words, size_t count, uint32_t word,
                       uint64_t mask, uint64_t* out) {
  if (count == 0) {
    return false;  // no column words to write
  }
  if (count <= 64) {
    uint64_t bits = 0;
    const uint64_t* cell = rows + word;
    for (size_t b = 0; b < count; ++b) {
      bits |= static_cast<uint64_t>((cell[b * stride_words] & mask) != 0)
              << b;
    }
    out[0] = bits;
    return bits != 0;
  }
  return kernels.gate_column(rows, stride_words, count, word, mask, out);
}

/// Minimal 32-byte-aligned allocator so bitset storage (batch result rows,
/// per-field memo words) starts on a vector-register boundary. The kernels
/// use unaligned loads regardless -- alignment is a throughput courtesy,
/// never a correctness requirement (rows whose word count is not a
/// multiple of 4 start mid-register).
template <typename T, std::size_t kAlign>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// 32-byte-aligned uint64 storage for result rows and memo bitsets.
using WordVector = std::vector<uint64_t, AlignedAllocator<uint64_t, 32>>;

}  // namespace epl::cep::simd

#endif  // EPL_CEP_SIMD_H_
