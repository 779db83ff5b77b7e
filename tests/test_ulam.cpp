// The Ulam engines.  The anchor property: Ulam distance IS edit distance on
// repeat-free strings, so the match-point chain DP (dense and sparse) must
// agree exactly with Wagner–Fischer on every repeat-free pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common/contracts.hpp"
#include "core/workload.hpp"
#include "seq/edit_distance.hpp"
#include "seq/lis.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"

namespace mpcsd::seq {
namespace {

struct UlamPair {
  SymString a;
  SymString b;
};

UlamPair planted_pair(std::int64_t n, std::int64_t k, std::uint64_t seed) {
  UlamPair p;
  p.a = core::random_permutation(n, seed);
  p.b = core::plant_edits(p.a, k, seed + 31, /*repeat_free=*/true).text;
  return p;
}

TEST(MatchPoints, BasicExtraction) {
  const SymString a{3, 1, 4};
  const SymString b{1, 4, 3};
  const auto pts = match_points(a, b);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0], (MatchPoint{0, 2}));  // symbol 3
  EXPECT_EQ(pts[1], (MatchPoint{1, 0}));  // symbol 1
  EXPECT_EQ(pts[2], (MatchPoint{2, 1}));  // symbol 4
}

TEST(MatchPoints, DisjointAlphabets) {
  const SymString a{1, 2, 3};
  const SymString b{4, 5, 6};
  EXPECT_TRUE(match_points(a, b).empty());
}

TEST(Ulam, KnownSmallCases) {
  EXPECT_EQ(ulam_distance(SymString{}, SymString{}), 0);
  EXPECT_EQ(ulam_distance(SymString{1, 2}, SymString{}), 2);
  EXPECT_EQ(ulam_distance(SymString{1, 2}, SymString{2, 1}), 2);  // 2 substitutions
  EXPECT_EQ(ulam_distance(SymString{1, 2, 3}, SymString{3, 1, 2}), 2);
  EXPECT_EQ(ulam_distance(SymString{1, 2, 3}, SymString{1, 2, 3}), 0);
  EXPECT_EQ(ulam_distance(SymString{1, 2, 3}, SymString{4, 5, 6}), 3);
}

TEST(Ulam, DenseMatchesWagnerFischerExhaustiveSmall) {
  // Every pair of small permutations with disjoint fresh-symbol edits.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto p = planted_pair(8, static_cast<std::int64_t>(seed % 10), seed);
    const auto expected = edit_distance(p.a, p.b);
    ASSERT_EQ(ulam_distance_dense(p.a, p.b), expected) << "seed=" << seed;
  }
}

TEST(Ulam, SparseMatchesDenseAndWagnerFischer) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto n = 20 + static_cast<std::int64_t>(seed * 5);
    const auto p = planted_pair(n, static_cast<std::int64_t>(seed % 25), seed);
    const auto expected = edit_distance(p.a, p.b);
    ASSERT_EQ(ulam_distance_dense(p.a, p.b), expected) << "seed=" << seed;
    ASSERT_EQ(ulam_distance(p.a, p.b), expected) << "seed=" << seed;
  }
}

TEST(Ulam, IndependentPermutations) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto a = core::random_permutation(50, seed);
    const auto b = core::random_permutation(50, seed + 500);
    const auto expected = edit_distance(a, b);
    ASSERT_EQ(ulam_distance(a, b), expected) << "seed=" << seed;
  }
}

TEST(Ulam, RejectsRepeats) {
  EXPECT_THROW((void)ulam_distance(SymString{1, 1}, SymString{1, 2}),
               ContractViolation);
  EXPECT_THROW((void)ulam_distance(SymString{1, 2}, SymString{2, 2}),
               ContractViolation);
}

TEST(UlamFromMatchPoints, EquivalentToViews) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = planted_pair(40, 8, seed);
    const auto pts = match_points(p.a, p.b);
    EXPECT_EQ(ulam_from_match_points(pts, static_cast<std::int64_t>(p.a.size()),
                                     static_cast<std::int64_t>(p.b.size())),
              ulam_distance(p.a, p.b));
  }
}

TEST(BoundedUlam, ExactWithinCapNulloptBeyond) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto p = planted_pair(30, static_cast<std::int64_t>(seed % 12), seed);
    const auto exact = ulam_distance(p.a, p.b);
    const auto pts = match_points(p.a, p.b);
    const auto na = static_cast<std::int64_t>(p.a.size());
    const auto nb = static_cast<std::int64_t>(p.b.size());
    for (std::int64_t cap = 0; cap <= exact + 3; ++cap) {
      const auto d = bounded_ulam_from_match_points(pts, na, nb, cap);
      if (exact <= cap) {
        ASSERT_TRUE(d.has_value()) << "seed=" << seed << " cap=" << cap;
        EXPECT_EQ(*d, exact);
      } else {
        EXPECT_FALSE(d.has_value()) << "seed=" << seed << " cap=" << cap;
      }
    }
  }
}

TEST(BoundedUlam, ChargesScannedPointsAfterTheLengthCheck) {
  // The capped kernel charges nothing when |na - nb| > cap.  Otherwise it
  // charges the points scanned, then what the combine over the in-band
  // runs charges, which is ulam_from_match_points' charge for the band.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto p = seed % 3 == 2
                       ? UlamPair{core::random_permutation(30, seed),
                                  core::random_permutation(30, seed + 100)}
                       : planted_pair(30, static_cast<std::int64_t>(seed % 12), seed);
    const auto pts = match_points(p.a, p.b);
    const auto na = static_cast<std::int64_t>(p.a.size());
    const auto nb = static_cast<std::int64_t>(p.b.size());
    for (std::int64_t cap = 0; cap <= 32; ++cap) {
      std::uint64_t work = 0;
      const auto d = bounded_ulam_from_match_points(pts, na, nb, cap, &work);
      if (std::abs(na - nb) > cap) {
        EXPECT_FALSE(d.has_value());
        EXPECT_EQ(work, 0u) << "seed=" << seed << " cap=" << cap;
        continue;
      }
      std::vector<MatchPoint> band;
      for (const MatchPoint& m : pts) {
        if (std::abs(m.p - m.q) <= cap) band.push_back(m);
      }
      std::uint64_t combine_work = 0;
      const auto full = ulam_from_match_points(band, na, nb, &combine_work);
      const auto want = full <= cap ? std::optional<std::int64_t>(full) : std::nullopt;
      EXPECT_EQ(d, want) << "seed=" << seed << " cap=" << cap;
      EXPECT_EQ(work, pts.size() + combine_work) << "seed=" << seed << " cap=" << cap;
      std::uint64_t run_work = 0;
      EXPECT_EQ(bounded_ulam_from_runs(diagonal_runs(band), na, nb, cap, 7, &run_work), want);
      EXPECT_EQ(run_work, 7 + combine_work);
    }
  }
}

TEST(LocalUlam, MatchesBruteForceOnSmallInputs) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto t = core::random_permutation(18, seed);
    // Block: a contiguous slice of a perturbed copy.
    const auto edited = core::plant_edits(t, static_cast<std::int64_t>(seed % 6),
                                          seed + 7, true)
                            .text;
    const std::int64_t from = static_cast<std::int64_t>(seed % 5);
    const std::int64_t len = 5 + static_cast<std::int64_t>(seed % 4);
    const SymView block = subview(edited, {from, from + len});

    const auto brute = local_ulam_bruteforce(block, t);
    const auto dense = local_ulam_dense(block, t);
    const auto sparse = local_ulam(block, t);
    ASSERT_EQ(dense.distance, brute.distance) << "seed=" << seed;
    ASSERT_EQ(sparse.distance, brute.distance) << "seed=" << seed;
    // The recovered window must achieve the reported distance.
    EXPECT_EQ(ulam_distance_dense(block, subview(t, sparse.window)),
              sparse.distance)
        << "seed=" << seed;
  }
}

TEST(LocalUlam, ExactSubstringIsFound) {
  const auto t = core::random_permutation(100, 5);
  const SymView block = subview(t, {37, 59});
  const auto result = local_ulam(block, t);
  EXPECT_EQ(result.distance, 0);
  EXPECT_EQ(ulam_distance(block, subview(t, result.window)), 0);
}

TEST(LocalUlam, NoCommonCharacters) {
  const SymString block{100, 101, 102};
  const auto t = core::random_permutation(20, 1);
  const auto result = local_ulam(block, t);
  EXPECT_EQ(result.distance, 3);  // delete everything
}

TEST(LocalUlam, LowerBoundsGlobalUlam) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = planted_pair(40, 10, seed);
    const SymView block = subview(p.a, {10, 25});
    const auto local = local_ulam(block, p.b);
    // lulam is min over substrings, so <= ulam(block, whole string).
    EXPECT_LE(local.distance, ulam_distance(block, p.b));
  }
}

// Parameterized sweep: sparse == dense == Wagner-Fischer over (n, edits).
class UlamSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(UlamSweep, AllEnginesAgree) {
  const auto [n, k] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto p = planted_pair(n, k, seed * 13 + static_cast<std::uint64_t>(n));
    const auto expected = edit_distance(p.a, p.b);
    ASSERT_EQ(ulam_distance(p.a, p.b), expected)
        << "n=" << n << " k=" << k << " seed=" << seed;
    ASSERT_EQ(ulam_distance_dense(p.a, p.b), expected)
        << "n=" << n << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEdits, UlamSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 10, 50, 120, 250),
                       ::testing::Values<std::int64_t>(0, 1, 5, 25, 80)));

TEST(UlamAlignment, ChainIsValidAndCostsMatch) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto p = planted_pair(60, static_cast<std::int64_t>(seed % 20), seed);
    const auto exact = ulam_distance(p.a, p.b);
    const auto alignment = ulam_alignment(p.a, p.b);
    ASSERT_EQ(alignment.distance, exact) << "seed=" << seed;

    // Chain must be strictly increasing in both coordinates with matching
    // symbols, and its gap-cost decomposition must reproduce the distance.
    std::int64_t cost = 0;
    std::int64_t prev_p = -1;
    std::int64_t prev_q = -1;
    for (const MatchPoint& m : alignment.chain) {
      ASSERT_GT(m.p, prev_p);
      ASSERT_GT(m.q, prev_q);
      ASSERT_EQ(p.a[static_cast<std::size_t>(m.p)], p.b[static_cast<std::size_t>(m.q)]);
      if (prev_p < 0) {
        cost += std::max(m.p, m.q);
      } else {
        cost += std::max(m.p - prev_p - 1, m.q - prev_q - 1);
      }
      prev_p = m.p;
      prev_q = m.q;
    }
    const auto na = static_cast<std::int64_t>(p.a.size());
    const auto nb = static_cast<std::int64_t>(p.b.size());
    if (prev_p < 0) {
      cost = std::max(na, nb);
    } else {
      cost += std::max(na - 1 - prev_p, nb - 1 - prev_q);
    }
    ASSERT_EQ(cost, exact) << "seed=" << seed;
  }
}

TEST(UlamAlignment, IdenticalStringsKeepEverything) {
  const auto a = core::random_permutation(40, 3);
  const auto alignment = ulam_alignment(a, a);
  EXPECT_EQ(alignment.distance, 0);
  EXPECT_EQ(alignment.chain.size(), 40u);
}

TEST(Ulam, LargeSparseStressAgainstBanded) {
  // Large similar permutations: sparse Ulam vs exact banded edit distance.
  const auto a = core::random_permutation(5000, 11);
  const auto b = core::plant_edits(a, 60, 12, true).text;
  const auto limit = static_cast<std::int64_t>(std::max(a.size(), b.size()));
  const auto expected = edit_distance_bounded(a, b, limit);
  EXPECT_EQ(ulam_distance(a, b), expected);
}

}  // namespace
}  // namespace mpcsd::seq
