// Kernel-level equivalence tests for the runtime-dispatched SIMD layer:
// every AVX2 kernel must be bit-identical to the portable scalar table at
// awkward widths (word counts around the 4-word vector boundary, short and
// long rows, unaligned starting offsets), and the dispatch plumbing
// (Active / SetDispatchForTest / EPL_FORCE_SCALAR) must behave. The
// higher-level guarantee -- whole detection streams identical across
// dispatch modes -- is pinned by tests/cep_differential_fuzz_test.cc.

#include "cep/simd.h"

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace epl::cep::simd {
namespace {

// Word counts straddling every vector boundary: empty, sub-register,
// exactly one register (4), register + tail, and the 63/64/65 cluster the
// bank actually produces around 4096 predicates.
const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65};
const size_t kRowCounts[] = {1, 2, 5, 32};

std::vector<uint64_t> RandomWords(Rng* rng, size_t n) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    w = rng->NextUint64();
  }
  return words;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Available()) {
      GTEST_SKIP() << "AVX2 unavailable; scalar is the only table";
    }
  }
};

TEST_F(SimdKernelTest, AndNotIntoMatchesScalarAtEveryWidth) {
  Rng rng(0x51D0002);
  for (size_t words : kWordCounts) {
    for (size_t offset : {size_t{0}, size_t{1}}) {
      const std::vector<uint64_t> src = RandomWords(&rng, words + offset);
      const std::vector<uint64_t> original = RandomWords(&rng, words + offset);
      std::vector<uint64_t> scalar = original;
      std::vector<uint64_t> avx2 = original;
      ScalarKernels().andnot_into(scalar.data() + offset,
                                  src.data() + offset, words);
      Avx2Kernels().andnot_into(avx2.data() + offset, src.data() + offset,
                                words);
      EXPECT_EQ(scalar, avx2) << "words=" << words << " offset=" << offset;
    }
  }
}

TEST_F(SimdKernelTest, AndRowsMatchesScalarAcrossShapes) {
  Rng rng(0x51D0003);
  for (size_t words : kWordCounts) {
    for (size_t rows : kRowCounts) {
      // stride == words exercises the contiguous broadcast fast path;
      // stride > words exercises the strided general path with gap words
      // that must stay untouched.
      for (size_t stride : {words, words + 3}) {
        const std::vector<uint64_t> src = RandomWords(&rng, words);
        const std::vector<uint64_t> original =
            RandomWords(&rng, rows * stride);
        std::vector<uint64_t> scalar = original;
        std::vector<uint64_t> avx2 = original;
        ScalarKernels().and_rows(scalar.data(), stride, rows, src.data(),
                                 words);
        Avx2Kernels().and_rows(avx2.data(), stride, rows, src.data(), words);
        EXPECT_EQ(scalar, avx2)
            << "words=" << words << " rows=" << rows << " stride=" << stride;
      }
    }
  }
}

TEST_F(SimdKernelTest, AndRowsLeavesGapWordsUntouched) {
  Rng rng(0x51D0004);
  const size_t words = 3;
  const size_t stride = 5;
  const size_t rows = 7;
  const std::vector<uint64_t> src = RandomWords(&rng, words);
  const std::vector<uint64_t> original = RandomWords(&rng, rows * stride);
  std::vector<uint64_t> avx2 = original;
  Avx2Kernels().and_rows(avx2.data(), stride, rows, src.data(), words);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t w = words; w < stride; ++w) {
      EXPECT_EQ(avx2[r * stride + w], original[r * stride + w])
          << "gap word clobbered at row " << r << " word " << w;
    }
  }
}

TEST_F(SimdKernelTest, InlineHelpersMatchKernelsAcrossTheThreshold) {
  // The call-site helpers (AndNotInto / AndRows / GateColumn) run an
  // inline loop below their threshold of work and dispatch above it; both
  // branches must agree with the raw kernel table.
  Rng rng(0x51D0007);
  for (const Kernels* kernels : {&ScalarKernels(), &Avx2Kernels()}) {
    for (size_t words : {size_t{3}, size_t{20}, size_t{40}, size_t{65}}) {
      const std::vector<uint64_t> src = RandomWords(&rng, words);
      const std::vector<uint64_t> original = RandomWords(&rng, words);
      std::vector<uint64_t> helper = original;
      std::vector<uint64_t> direct = original;
      AndNotInto(*kernels, helper.data(), src.data(), words);
      kernels->andnot_into(direct.data(), src.data(), words);
      EXPECT_EQ(helper, direct) << "words=" << words;
    }
    for (size_t count : {size_t{1}, size_t{32}, size_t{65}, size_t{130}}) {
      const size_t stride = 4;
      const std::vector<uint64_t> rows = RandomWords(&rng, count * stride);
      const uint64_t mask = rng.NextUint64() & rng.NextUint64();
      const size_t out_words = (count + 63) / 64;
      std::vector<uint64_t> helper_out(out_words, ~uint64_t{0});
      std::vector<uint64_t> direct_out(out_words, ~uint64_t{0});
      const bool helper_any = GateColumn(*kernels, rows.data(), stride, count,
                                         1, mask, helper_out.data());
      const bool direct_any = kernels->gate_column(
          rows.data(), stride, count, 1, mask, direct_out.data());
      EXPECT_EQ(helper_out, direct_out) << "count=" << count;
      EXPECT_EQ(helper_any, direct_any) << "count=" << count;
    }
  }
}

TEST_F(SimdKernelTest, GateColumnMatchesScalarAcrossShapes) {
  Rng rng(0x51D0005);
  // Row counts around the out-word boundary and the 4-row gather step.
  const size_t counts[] = {1, 3, 4, 5, 31, 32, 63, 64, 65, 130};
  for (size_t stride : {size_t{1}, size_t{4}, size_t{7}}) {
    for (size_t count : counts) {
      const std::vector<uint64_t> rows = RandomWords(&rng, count * stride);
      for (uint32_t word = 0; word < stride; word += stride > 1 ? 3 : 1) {
        // A sparse mask so both zero and non-zero cells occur.
        const uint64_t mask = rng.NextUint64() & rng.NextUint64() &
                              rng.NextUint64() & rng.NextUint64();
        const size_t out_words = (count + 63) / 64;
        std::vector<uint64_t> scalar_out(out_words, ~uint64_t{0});
        std::vector<uint64_t> avx2_out(out_words, ~uint64_t{0});
        const bool scalar_any = ScalarKernels().gate_column(
            rows.data(), stride, count, word, mask, scalar_out.data());
        const bool avx2_any = Avx2Kernels().gate_column(
            rows.data(), stride, count, word, mask, avx2_out.data());
        EXPECT_EQ(scalar_out, avx2_out)
            << "stride=" << stride << " count=" << count << " word=" << word;
        EXPECT_EQ(scalar_any, avx2_any);
        // Reference semantics, independently of the scalar kernel.
        bool expect_any = false;
        for (size_t b = 0; b < count; ++b) {
          const bool bit = (avx2_out[b >> 6] >> (b & 63)) & 1;
          const bool want = (rows[b * stride + word] & mask) != 0;
          EXPECT_EQ(bit, want) << "b=" << b;
          expect_any |= want;
        }
        EXPECT_EQ(avx2_any, expect_any);
        // Tail bits beyond count must be zeroed (callers ctz over them).
        if (count % 64 != 0) {
          EXPECT_EQ(avx2_out.back() >> (count % 64), 0u);
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ActiveMatchesAvailability) {
  const char* forced = std::getenv("EPL_FORCE_SCALAR");
  const bool force_scalar =
      forced != nullptr && forced[0] != '\0' &&
      !(forced[0] == '0' && forced[1] == '\0');
  if (force_scalar || !Avx2Available()) {
    EXPECT_EQ(Active().dispatch, Dispatch::kScalar);
    EXPECT_STREQ(DispatchName(), "scalar");
  } else {
    EXPECT_EQ(Active().dispatch, Dispatch::kAvx2);
    EXPECT_STREQ(DispatchName(), "avx2");
  }
}

TEST(SimdDispatchTest, SetDispatchForTestOverridesAndRestores) {
  const Dispatch ambient = Active().dispatch;
  SetDispatchForTest(Dispatch::kScalar);
  EXPECT_EQ(Active().dispatch, Dispatch::kScalar);
  EXPECT_STREQ(DispatchName(), "scalar");
  if (Avx2Available()) {
    SetDispatchForTest(Dispatch::kAvx2);
    EXPECT_EQ(Active().dispatch, Dispatch::kAvx2);
    EXPECT_STREQ(DispatchName(), "avx2");
  }
  SetDispatchForTest(std::nullopt);
  EXPECT_EQ(Active().dispatch, ambient);
}

TEST(SimdDispatchTest, WordVectorIs32ByteAligned) {
  WordVector v(65, 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 32, 0u);
}

}  // namespace
}  // namespace epl::cep::simd
