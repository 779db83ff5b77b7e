// The CGKKS-style approximate edit-distance unit: validity (never below the
// true distance), the 3+O(eps) factor, the exact fast paths, and the
// subquadratic work profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/workload.hpp"
#include "seq/approx_edit.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {
namespace {

double guarantee_factor(double eps) {
  // approx <= 3(1+2eps)(1+eps) * exact + small additive slack.
  return 3.0 * (1.0 + 2.0 * eps) * (1.0 + eps);
}

TEST(ApproxEdit, ExactOnSmallInputs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto a = core::random_string(60, 4, seed);
    const auto b = core::random_string(64, 4, seed + 40);
    const auto result = approx_edit_distance(a, b);
    EXPECT_TRUE(result.exact);
    EXPECT_EQ(result.distance, edit_distance(a, b)) << "seed=" << seed;
  }
}

TEST(ApproxEdit, EqualStrings) {
  const auto a = core::random_string(5000, 4, 1);
  const auto result = approx_edit_distance(a, a);
  EXPECT_EQ(result.distance, 0);
  EXPECT_TRUE(result.exact);
}

TEST(ApproxEdit, EmptyStrings) {
  const auto a = core::random_string(100, 4, 1);
  EXPECT_EQ(approx_edit_distance(a, SymString{}).distance, 100);
  EXPECT_EQ(approx_edit_distance(SymString{}, a).distance, 100);
  EXPECT_EQ(approx_edit_distance(SymString{}, SymString{}).distance, 0);
}

TEST(ApproxEdit, SmallDistancesResolvedExactlyByBand) {
  // Distances below the window size take the exact banded path.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto a = core::random_string(3000, 4, seed);
    const auto b = core::plant_edits(a, 20 + static_cast<std::int64_t>(seed), seed + 5,
                                     false)
                       .text;
    const auto result = approx_edit_distance(a, b);
    EXPECT_TRUE(result.exact) << "seed=" << seed;
    const auto limit = static_cast<std::int64_t>(std::max(a.size(), b.size()));
    EXPECT_EQ(result.distance, edit_distance_bounded(a, b, limit)) << "seed=" << seed;
  }
}

class ApproxEditQuality
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(ApproxEditQuality, WithinGuaranteeAndNeverBelow) {
  const auto [n, edits] = GetParam();
  ApproxEditParams params;
  params.epsilon = 0.25;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto a = core::random_string(n, 8, seed + static_cast<std::uint64_t>(n));
    const auto b = core::plant_edits(a, edits, seed + 91, false, 8).text;
    const auto exact = edit_distance(a, b);
    const auto result = approx_edit_distance(a, b, params);
    ASSERT_GE(result.distance, exact) << "n=" << n << " edits=" << edits;
    const double bound =
        guarantee_factor(params.epsilon) * static_cast<double>(exact) + 12.0;
    ASSERT_LE(static_cast<double>(result.distance), bound)
        << "n=" << n << " edits=" << edits << " seed=" << seed
        << " exact=" << exact;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEdits, ApproxEditQuality,
    ::testing::Combine(::testing::Values<std::int64_t>(500, 1500, 4000),
                       ::testing::Values<std::int64_t>(0, 5, 60, 400)));

TEST(ApproxEdit, FarRandomStringsStayWithinGuarantee) {
  ApproxEditParams params;
  params.epsilon = 0.25;
  const auto a = core::random_string(2000, 4, 1);
  const auto b = core::random_string(2000, 4, 2);
  const auto exact = edit_distance(a, b);
  const auto result = approx_edit_distance(a, b, params);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance),
            guarantee_factor(params.epsilon) * static_cast<double>(exact) + 12.0);
}

TEST(ApproxEdit, BlockShuffleWorkload) {
  // The adversarial large-distance family: blocks of s moved far away.
  const auto a = core::random_string(2400, 6, 7);
  const auto b = core::block_shuffle(a, 300, 8);
  const auto exact = edit_distance(a, b);
  ApproxEditParams params;
  params.epsilon = 0.25;
  const auto result = approx_edit_distance(a, b, params);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance),
            guarantee_factor(params.epsilon) * static_cast<double>(exact) + 12.0);
}

TEST(ApproxEdit, WorkSubquadraticOnNearPairs) {
  // For planted distance ~n^0.4 the unit resolves via the exact band:
  // work ~ n * d, far below n^2.
  const std::int64_t n = 20000;
  const auto a = core::random_string(n, 4, 3);
  const auto b = core::plant_edits(a, 50, 4, false).text;
  const auto result = approx_edit_distance(a, b);
  EXPECT_LT(result.work, static_cast<std::uint64_t>(n) * n / 10);
}

TEST(ApproxEdit, RepresentativeCertificationPathStaysValid) {
  // Force the triangle-inequality machinery (normally reserved for large
  // node counts): answers must stay valid and within the guarantee.
  ApproxEditParams params;
  params.epsilon = 0.25;
  params.rep_min_nodes = 1;  // always use representatives
  const auto a = core::random_string(1000, 6, 21);
  const auto b = core::block_shuffle(a, 200, 22);
  const auto exact = edit_distance(a, b);
  const auto result = approx_edit_distance(a, b, params);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance),
            guarantee_factor(params.epsilon) * static_cast<double>(exact) + 12.0);
}

TEST(ApproxEdit, GuessLimitCensorsFarPairs) {
  const auto a = core::random_string(2000, 4, 23);
  const auto b = core::random_string(2000, 4, 24);
  const auto exact = edit_distance(a, b);
  ApproxEditParams limited;
  limited.guess_limit = exact / 8;  // far below the true distance
  const auto result = approx_edit_distance(a, b, limited);
  // The limited run may only return the trivial (or a partial) upper
  // bound, but it must remain a valid upper bound and be much cheaper.
  EXPECT_GE(result.distance, exact);
  ApproxEditParams full;
  const auto full_result = approx_edit_distance(a, b, full);
  EXPECT_LE(result.work, full_result.work);
}

TEST(ApproxEdit, DeterministicAcrossCalls) {
  const auto a = core::random_string(3000, 4, 9);
  const auto b = core::block_shuffle(a, 500, 10);
  const auto r1 = approx_edit_distance(a, b);
  const auto r2 = approx_edit_distance(a, b);
  EXPECT_EQ(r1.distance, r2.distance);
  EXPECT_EQ(r1.work, r2.work);
}

}  // namespace
}  // namespace mpcsd::seq
