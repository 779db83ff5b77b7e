// Exact edit-distance engines: Wagner–Fischer, Ukkonen band, doubling.
// The three must agree exactly on every input; the band must certify
// correctly (value iff distance <= k).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/workload.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {
namespace {

std::int64_t ed(const std::string& a, const std::string& b) {
  return edit_distance(to_symbols(a), to_symbols(b));
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(ed("", ""), 0);
  EXPECT_EQ(ed("abc", ""), 3);
  EXPECT_EQ(ed("", "abc"), 3);
  EXPECT_EQ(ed("abc", "abc"), 0);
  EXPECT_EQ(ed("kitten", "sitting"), 3);
  EXPECT_EQ(ed("flaw", "lawn"), 2);
  EXPECT_EQ(ed("intention", "execution"), 5);
  // The paper's running example (Section 2).
  EXPECT_EQ(ed("elephant", "relevant"), 3);
}

TEST(EditDistance, SymmetricAndTriangle) {
  const auto a = core::random_string(60, 4, 1);
  const auto b = core::random_string(70, 4, 2);
  const auto c = core::random_string(65, 4, 3);
  EXPECT_EQ(edit_distance(a, b), edit_distance(b, a));
  EXPECT_LE(edit_distance(a, c), edit_distance(a, b) + edit_distance(b, c));
}

TEST(EditDistance, BoundedByLengths) {
  const auto a = core::random_string(40, 3, 4);
  const auto b = core::random_string(90, 3, 5);
  const auto d = edit_distance(a, b);
  EXPECT_GE(d, 50);  // length difference
  EXPECT_LE(d, 90);  // max length
}

TEST(EditDistanceBanded, AgreesWithExactWhenWithinBand) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto a = core::random_string(50, 4, seed);
    const auto planted = core::plant_edits(a, static_cast<std::int64_t>(seed % 8), seed + 100,
                                           false);
    const auto exact = edit_distance(a, planted.text);
    for (std::int64_t k = 0; k <= 12; ++k) {
      const auto banded = edit_distance_banded(a, planted.text, k);
      if (exact <= k) {
        ASSERT_TRUE(banded.has_value()) << "seed=" << seed << " k=" << k;
        EXPECT_EQ(*banded, exact);
      } else {
        EXPECT_FALSE(banded.has_value()) << "seed=" << seed << " k=" << k;
      }
    }
  }
}

TEST(EditDistanceBanded, LengthDifferenceShortCircuit) {
  const auto a = core::random_string(10, 4, 1);
  const auto b = core::random_string(30, 4, 2);
  EXPECT_FALSE(edit_distance_banded(a, b, 5).has_value());
}

TEST(EditDistanceBanded, ZeroBand) {
  const auto a = core::random_string(20, 4, 7);
  EXPECT_EQ(edit_distance_banded(a, a, 0), std::optional<std::int64_t>(0));
  auto b = a;
  b[3] ^= 1;
  EXPECT_FALSE(edit_distance_banded(a, b, 0).has_value());
}

TEST(EditDistanceDoubling, MatchesExactOnRandomPairs) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto n = 20 + static_cast<std::int64_t>(seed * 7);
    const auto a = core::random_string(n, 4, seed);
    const auto b = core::random_string(n + static_cast<std::int64_t>(seed % 5), 4,
                                       seed + 1000);
    const auto limit = static_cast<std::int64_t>(std::max(a.size(), b.size()));
    EXPECT_EQ(edit_distance_bounded(a, b, limit), edit_distance(a, b)) << "seed=" << seed;
  }
}

TEST(EditDistanceBounded, RespectsLimit) {
  const auto a = core::random_string(100, 2, 11);
  const auto b = core::random_string(100, 2, 12);
  const auto exact = edit_distance(a, b);
  ASSERT_GT(exact, 5);
  EXPECT_FALSE(edit_distance_bounded(a, b, 5).has_value());
  EXPECT_EQ(edit_distance_bounded(a, b, exact), std::optional<std::int64_t>(exact));
}

TEST(EditDistance, PlantedEditsAreUpperBound) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto base = core::random_string(200, 4, seed);
    const std::int64_t k = static_cast<std::int64_t>(seed * 3 % 40);
    const auto planted = core::plant_edits(base, k, seed + 50, false);
    EXPECT_LE(edit_distance(base, planted.text), planted.edits_applied);
  }
}

TEST(EditDistance, WorkMeterCountsCells) {
  const auto a = core::random_string(30, 4, 1);
  const auto b = core::random_string(50, 4, 2);
  std::uint64_t work = 0;
  edit_distance(a, b, &work);
  EXPECT_EQ(work, 30u * 50u);
}

TEST(EditDistanceBanded, WorkScalesWithBand) {
  const auto a = core::random_string(2000, 4, 1);
  const auto planted = core::plant_edits(a, 10, 2, false);
  std::uint64_t narrow = 0;
  std::uint64_t wide = 0;
  (void)edit_distance_banded(a, planted.text, 16, &narrow);
  (void)edit_distance_banded(a, planted.text, 256, &wide);
  EXPECT_LT(narrow * 4, wide);  // band cost ~ n*k
}

// Parameterized sweep: doubling == exact over sizes and alphabets.
class EditDistanceSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, Symbol>> {};

TEST_P(EditDistanceSweep, DoublingMatchesExact) {
  const auto [n, alphabet] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto a = core::random_string(n, alphabet, seed);
    const auto b = core::random_string(n, alphabet, seed + 77);
    ASSERT_EQ(edit_distance_bounded(a, b, n), edit_distance(a, b))
        << "n=" << n << " sigma=" << alphabet << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, EditDistanceSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 5, 17, 64, 130),
                       ::testing::Values<Symbol>(2, 4, 26)));

}  // namespace
}  // namespace mpcsd::seq
