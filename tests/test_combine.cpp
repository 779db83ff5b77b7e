// The tuple-combine DP (Algorithms 2 and 4): fast solvers vs the naive
// reference, validity (output is a realizable transformation cost), and the
// overlap extension of Section 5.2.3.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {
namespace {

std::vector<Tuple> random_tuples(std::int64_t n, std::int64_t n_bar,
                                 std::size_t count, std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x70);
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = rng.uniform(0, n - 1);
    t.block_end = rng.uniform(t.block_begin + 1, n);
    t.window_begin = rng.uniform(0, n_bar);
    t.window_end = rng.uniform(t.window_begin, n_bar);
    t.distance = rng.uniform(0, 30);
    tuples.push_back(t);
  }
  return tuples;
}

TEST(Combine, EmptyTupleSetGivesTrivialCost) {
  CombineOptions max_opts{GapCost::kMax, true, false};
  CombineOptions sum_opts{GapCost::kSum, true, false};
  EXPECT_EQ(combine_tuples({}, 10, 14, max_opts), 14);
  EXPECT_EQ(combine_tuples({}, 10, 14, sum_opts), 24);
}

TEST(Combine, SingleTuple) {
  // Block [2,5) -> window [3,7), distance 1, n=10, n_bar=12.
  const std::vector<Tuple> tuples{{2, 5, 3, 7, 1}};
  CombineOptions opts{GapCost::kMax, true, false};
  // max(2,3) + 1 + max(10-5, 12-7) = 3 + 1 + 5 = 9.
  EXPECT_EQ(combine_tuples(tuples, 10, 12, opts), 9);
  opts.gap = GapCost::kSum;
  // (2+3) + 1 + (5+5) = 16, but the trivial bound is 10+12 = 22 > 16.
  EXPECT_EQ(combine_tuples(tuples, 10, 12, opts), 16);
}

TEST(Combine, PrefersCheaperChain) {
  // Two adjacent blocks covering everything exactly.
  const std::vector<Tuple> tuples{{0, 5, 0, 5, 1}, {5, 10, 5, 10, 2}};
  CombineOptions opts{GapCost::kMax, true, false};
  EXPECT_EQ(combine_tuples(tuples, 10, 10, opts), 3);
}

TEST(Combine, RespectsMonotonicity) {
  // Tuples with crossing windows cannot chain.
  const std::vector<Tuple> tuples{{0, 5, 6, 10, 0}, {5, 10, 0, 5, 0}};
  CombineOptions opts{GapCost::kMax, true, false};
  // Using one tuple: max(0,6)+0+max(5,0)=11  or  max(5,0)+0+max(0,5)=10.
  EXPECT_EQ(combine_tuples(tuples, 10, 10, opts), 10);
}

class CombineFuzz : public ::testing::TestWithParam<std::tuple<int, GapCost>> {};

TEST_P(CombineFuzz, FastMatchesNaive) {
  const auto [count, gap] = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const std::int64_t n = 40;
    const std::int64_t n_bar = 46;
    const auto tuples = random_tuples(n, n_bar, static_cast<std::size_t>(count), seed);
    CombineOptions fast{gap, true, false};
    CombineOptions naive{gap, false, false};
    const auto f = combine_tuples(tuples, n, n_bar, fast);
    const auto s = combine_tuples_naive(tuples, n, n_bar, naive);
    ASSERT_EQ(f, s) << "seed=" << seed << " count=" << count
                    << " gap=" << static_cast<int>(gap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndGapModes, CombineFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 5, 20, 100, 400),
                       ::testing::Values(GapCost::kMax, GapCost::kSum)));

TEST(Combine, ExactTuplesUpperBoundTrueDistance) {
  // Tuples built from exact block distances to aligned windows: the combine
  // result must be >= ed(s, t) (realizability) and, with perfectly aligned
  // exact tuples, usually close to it.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_string(80, 4, seed);
    const auto t = core::plant_edits(s, 8, seed + 3, false).text;
    const auto n = static_cast<std::int64_t>(s.size());
    const auto n_bar = static_cast<std::int64_t>(t.size());
    std::vector<Tuple> tuples;
    for (std::int64_t b = 0; b < n; b += 20) {
      const std::int64_t be = std::min<std::int64_t>(n, b + 20);
      for (std::int64_t shift = -4; shift <= 4; shift += 2) {
        const std::int64_t wb = std::clamp<std::int64_t>(b + shift, 0, n_bar);
        const std::int64_t we = std::clamp<std::int64_t>(be + shift, wb, n_bar);
        const auto d = edit_distance(subview(s, {b, be}), subview(t, {wb, we}));
        tuples.push_back(Tuple{b, be, wb, we, d});
      }
    }
    const auto exact = edit_distance(s, t);
    for (const GapCost gap : {GapCost::kMax, GapCost::kSum}) {
      const auto result = combine_tuples(tuples, n, n_bar, CombineOptions{gap, true, false});
      ASSERT_GE(result, exact) << "seed=" << seed;
      ASSERT_LE(result, n + n_bar);
    }
  }
}

TEST(Combine, OverlapExtensionNeverWorseThanWithout) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto tuples = random_tuples(30, 30, 40, seed);
    CombineOptions no_overlap{GapCost::kSum, false, false};
    CombineOptions with_overlap{GapCost::kSum, false, true};
    EXPECT_LE(combine_tuples_naive(tuples, 30, 30, with_overlap),
              combine_tuples_naive(tuples, 30, 30, no_overlap))
        << "seed=" << seed;
  }
}

TEST(Combine, OverlapStillUpperBoundsTrueDistance) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_string(60, 4, seed);
    const auto t = core::plant_edits(s, 6, seed + 11, false).text;
    const auto n = static_cast<std::int64_t>(s.size());
    const auto n_bar = static_cast<std::int64_t>(t.size());
    std::vector<Tuple> tuples;
    for (std::int64_t b = 0; b < n; b += 15) {
      const std::int64_t be = std::min<std::int64_t>(n, b + 15);
      // Deliberately overlapping windows.
      const std::int64_t wb = std::clamp<std::int64_t>(b - 3, 0, n_bar);
      const std::int64_t we = std::clamp<std::int64_t>(be + 3, wb, n_bar);
      const auto d = edit_distance(subview(s, {b, be}), subview(t, {wb, we}));
      tuples.push_back(Tuple{b, be, wb, we, d});
    }
    const auto result = combine_tuples_naive(
        tuples, n, n_bar, CombineOptions{GapCost::kSum, false, true});
    EXPECT_GE(result, edit_distance(s, t)) << "seed=" << seed;
  }
}

TEST(Combine, RejectsInvalidTuples) {
  const std::vector<Tuple> bad{{5, 3, 0, 2, 1}};  // empty block
  EXPECT_THROW((void)combine_tuples(bad, 10, 10), ContractViolation);
  const std::vector<Tuple> oob{{0, 3, 0, 20, 1}};  // window out of range
  EXPECT_THROW((void)combine_tuples(oob, 10, 10), ContractViolation);
}

/// The charge of the kMax solver's original balanced halving, which the
/// block-aware solver keeps: W(T) = 10·T + W(⌊T/2⌋) + W(T - ⌊T/2⌋).
std::uint64_t balanced_halving_work(std::uint64_t t) {
  if (t <= 1) return 0;
  return 10 * t + balanced_halving_work(t / 2) + balanced_halving_work(t - t / 2);
}

TEST(Combine, MaxWorkIsAFunctionOfTupleCount) {
  const std::int64_t n = 1000;
  const std::int64_t n_bar = 1000;
  for (const std::size_t count : {0, 1, 2, 31, 32, 33, 1000, 4097}) {
    // Random blocks, and 7 blocks partitioning [0, n) with many windows each.
    auto blocked = random_tuples(n, n_bar, count, 11);
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      blocked[i].block_begin = static_cast<std::int64_t>(i % 7) * 140;
      blocked[i].block_end = i % 7 == 6 ? n : blocked[i].block_begin + 140;
    }
    for (const auto& tuples : {random_tuples(n, n_bar, count, 5), blocked}) {
      std::uint64_t work = 0;
      (void)combine_tuples(tuples, n, n_bar, CombineOptions{GapCost::kMax, true, false},
                           &work);
      EXPECT_EQ(work, balanced_halving_work(count)) << "T=" << count;
    }
  }
}

TEST(Combine, WorkMeterFastBelowNaive) {
  const auto tuples = random_tuples(100, 100, 500, 3);
  std::uint64_t fast_work = 0;
  std::uint64_t naive_work = 0;
  (void)combine_tuples(tuples, 100, 100, CombineOptions{GapCost::kMax, true, false},
                       &fast_work);
  (void)combine_tuples_naive(tuples, 100, 100,
                             CombineOptions{GapCost::kMax, false, false}, &naive_work);
  EXPECT_LT(fast_work, naive_work);
}

}  // namespace
}  // namespace mpcsd::seq
