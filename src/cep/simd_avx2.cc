// AVX2 kernel implementations. This is the ONLY translation unit compiled
// with -mavx2 (see the set_source_files_properties call in CMakeLists.txt):
// confining the ISA flag here guarantees no AVX2 instruction can be emitted
// into code that runs before the CPUID dispatch check in simd.cc. Without
// the flag (non-x86 target, ancient compiler) the TU compiles to a stub and
// dispatch falls back to the scalar kernels.
//
// Bit-exactness: every kernel is pure 64-bit AND/ANDNOT/compare logic --
// no floating point, no horizontal reductions with reassociation -- so the
// scalar and AVX2 tables agree on every input by construction. The unit
// tests in tests/cep_simd_test.cc still compare them exhaustively at
// awkward widths, and the differential fuzz harness pins whole detection
// streams across dispatch modes.

#include "cep/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace epl::cep::simd {
namespace {

// dst[w] &= src[w]: the wide-row leg of Avx2AndRows.
void Avx2AndInto(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_and_si256(a, b));
  }
  for (; w < words; ++w) {
    dst[w] &= src[w];
  }
}

void Avx2AndNotInto(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    // andnot(b, a) = ~b & a.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_andnot_si256(b, a));
  }
  for (; w < words; ++w) {
    dst[w] &= ~src[w];
  }
}

void Avx2AndRows(uint64_t* rows, size_t stride_words, size_t num_rows,
                 const uint64_t* src, size_t words) {
  if (stride_words == words && words > 0 && words <= 2) {
    // Contiguous narrow rows (small banks): the whole block is
    // num_rows * words consecutive words ANDed with a 1- or 2-word
    // pattern, so a broadcast register covers 4 (or 2) rows per op.
    const __m256i pattern =
        words == 1
            ? _mm256_set1_epi64x(static_cast<long long>(src[0]))
            : _mm256_set_epi64x(static_cast<long long>(src[1]),
                                static_cast<long long>(src[0]),
                                static_cast<long long>(src[1]),
                                static_cast<long long>(src[0]));
    const size_t total = num_rows * words;
    size_t w = 0;
    for (; w + 4 <= total; w += 4) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + w));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + w),
                          _mm256_and_si256(a, pattern));
    }
    for (; w < total; ++w) {
      rows[w] &= src[w % words];
    }
    return;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    Avx2AndInto(rows + r * stride_words, src, words);
  }
}

bool Avx2GateColumn(const uint64_t* rows, size_t stride_words, size_t count,
                    uint32_t word, uint64_t mask, uint64_t* out) {
  const uint64_t* cell = rows + word;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vindex =
      _mm256_set_epi64x(static_cast<long long>(3 * stride_words),
                        static_cast<long long>(2 * stride_words),
                        static_cast<long long>(stride_words), 0);
  uint64_t any = 0;
  size_t b = 0;
  for (size_t base = 0; base < count; base += 64) {
    const size_t limit = count - base < 64 ? count - base : 64;
    uint64_t bits = 0;
    // 4 rows per gather; the movemask inverts the ==0 lanes into the
    // "gate bit set" nibble.
    for (; b + 4 <= base + limit; b += 4) {
      const __m256i gathered = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(cell + b * stride_words), vindex,
          8);
      const __m256i is_zero =
          _mm256_cmpeq_epi64(_mm256_and_si256(gathered, vmask), vzero);
      const uint64_t nibble =
          ~static_cast<uint64_t>(
              _mm256_movemask_pd(_mm256_castsi256_pd(is_zero))) &
          0xF;
      bits |= nibble << (b - base);
    }
    for (; b < base + limit; ++b) {
      bits |= static_cast<uint64_t>((cell[b * stride_words] & mask) != 0)
              << (b - base);
    }
    out[base / 64] = bits;
    any |= bits;
  }
  return any != 0;
}

const Kernels kAvx2Kernels = {
    Dispatch::kAvx2, "avx2",         Avx2AndNotInto,
    Avx2AndRows,     Avx2GateColumn,
};

}  // namespace

namespace internal {
const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace epl::cep::simd

#else  // !defined(__AVX2__)

namespace epl::cep::simd::internal {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace epl::cep::simd::internal

#endif  // defined(__AVX2__)
