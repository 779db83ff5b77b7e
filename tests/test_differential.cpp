// Differential fuzzing: every engine that computes the same quantity is
// compared on a large deterministic corpus of random instances.  This is
// the safety net under all other tests — any divergence between two
// implementations of the same function is a bug in one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "core/workload.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/lis.hpp"
#include "seq/myers.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd::seq {
namespace {

struct Instance {
  SymString a;
  SymString b;
};

Instance random_instance(std::uint64_t seed, bool repeat_free) {
  Pcg32 rng = derive_stream(seed, 0xD1FF);
  const auto na = 1 + rng.below(120);
  Instance inst;
  if (repeat_free) {
    inst.a = core::random_permutation(na, seed * 3 + 1);
    switch (rng.below(3)) {
      case 0:
        inst.b = core::plant_edits(inst.a, rng.below(40), seed * 3 + 2, true).text;
        break;
      case 1:
        inst.b = core::random_permutation(1 + rng.below(120), seed * 3 + 2);
        break;
      default:
        inst.b = core::rotate_by(inst.a, rng.below(na));
        break;
    }
  } else {
    const Symbol sigma = 2 + static_cast<Symbol>(rng.below(8));
    inst.a = core::random_string(na, sigma, seed * 3 + 1);
    switch (rng.below(3)) {
      case 0:
        inst.b = core::plant_edits(inst.a, rng.below(40), seed * 3 + 2, false, sigma).text;
        break;
      case 1:
        inst.b = core::random_string(1 + rng.below(120), sigma, seed * 3 + 2);
        break;
      default:
        inst.b = core::block_shuffle(inst.a, 1 + rng.below(30), seed * 3 + 2);
        break;
    }
  }
  return inst;
}

TEST(Differential, EditDistanceEnginesAgree) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto inst = random_instance(seed, false);
    const auto reference = edit_distance(inst.a, inst.b);
    const auto limit = static_cast<std::int64_t>(std::max(inst.a.size(), inst.b.size()));
    ASSERT_EQ(edit_distance_bounded(inst.a, inst.b, limit), reference) << "seed=" << seed;
    ASSERT_EQ(edit_distance_myers(inst.a, inst.b), reference) << "seed=" << seed;
    // The band certifies exactly at the reference and refuses below it.
    ASSERT_EQ(edit_distance_banded(inst.a, inst.b, reference),
              std::optional<std::int64_t>(reference))
        << "seed=" << seed;
    if (reference > 0) {
      ASSERT_FALSE(edit_distance_banded(inst.a, inst.b, reference - 1).has_value())
          << "seed=" << seed;
    }
  }
}

TEST(Differential, UlamEnginesAgreeWithWagnerFischer) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto inst = random_instance(seed, true);
    const auto reference = edit_distance(inst.a, inst.b);
    ASSERT_EQ(ulam_distance(inst.a, inst.b), reference) << "seed=" << seed;
    ASSERT_EQ(ulam_distance_dense(inst.a, inst.b), reference) << "seed=" << seed;
    ASSERT_EQ(ulam_alignment(inst.a, inst.b).distance, reference) << "seed=" << seed;
  }
}

TEST(Differential, BoundedUlamConsistentWithExact) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    const auto inst = random_instance(seed, true);
    const auto reference = ulam_distance(inst.a, inst.b);
    const auto pts = match_points(inst.a, inst.b);
    const auto na = static_cast<std::int64_t>(inst.a.size());
    const auto nb = static_cast<std::int64_t>(inst.b.size());
    Pcg32 rng = derive_stream(seed, 0xCA9);
    const std::int64_t cap = rng.below(140);
    const auto bounded = bounded_ulam_from_match_points(pts, na, nb, cap);
    if (reference <= cap) {
      ASSERT_EQ(bounded, std::optional<std::int64_t>(reference)) << "seed=" << seed;
    } else {
      ASSERT_FALSE(bounded.has_value()) << "seed=" << seed;
    }
  }
}

TEST(Differential, LocalUlamEnginesAgree) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Pcg32 rng = derive_stream(seed, 0x10CA);
    const auto t = core::random_permutation(10 + rng.below(25), seed + 1);
    const auto edited = core::plant_edits(t, rng.below(8), seed + 2, true).text;
    const auto from = rng.below(static_cast<std::uint32_t>(edited.size()));
    const auto len = 1 + rng.below(static_cast<std::uint32_t>(edited.size() - from));
    const SymView block = subview(edited, {static_cast<std::int64_t>(from),
                                           static_cast<std::int64_t>(from + len)});
    const auto brute = local_ulam_bruteforce(block, t);
    const auto sparse = local_ulam(block, t);
    const auto dense = local_ulam_dense(block, t);
    ASSERT_EQ(sparse.distance, brute.distance) << "seed=" << seed;
    ASSERT_EQ(dense.distance, brute.distance) << "seed=" << seed;
  }
}

TEST(Differential, CombineSolversAgreeOnAdversarialTuples) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Pcg32 rng = derive_stream(seed, 0xC0B1);
    const std::int64_t n = 1 + rng.below(60);
    const std::int64_t n_bar = 1 + rng.below(60);
    std::vector<Tuple> tuples;
    const auto count = rng.below(60);
    for (std::uint32_t i = 0; i < count; ++i) {
      Tuple t;
      t.block_begin = rng.uniform(0, n - 1);
      t.block_end = rng.uniform(t.block_begin + 1, n);
      t.window_begin = rng.uniform(0, n_bar);
      t.window_end = rng.uniform(t.window_begin, n_bar);
      t.distance = rng.uniform(0, 10);
      tuples.push_back(t);
    }
    for (const GapCost gap : {GapCost::kMax, GapCost::kSum}) {
      const auto fast =
          combine_tuples(tuples, n, n_bar, CombineOptions{gap, true, false});
      const auto naive =
          combine_tuples_naive(tuples, n, n_bar, CombineOptions{gap, false, false});
      ASSERT_EQ(fast, naive) << "seed=" << seed << " gap=" << static_cast<int>(gap);
    }
  }
}

/// Tuples over blocks that partition [0, n), many windows per block, each
/// window near its block's diagonal (as Algorithm 1 emits them) or anywhere.
std::vector<Tuple> partitioned_tuples(std::int64_t n, std::int64_t n_bar,
                                      std::size_t blocks, std::size_t count,
                                      std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0xB10C);
  std::vector<std::int64_t> cuts{0, n};
  while (cuts.size() < blocks + 1) cuts.push_back(rng.uniform(1, n - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    const auto k = rng.below(static_cast<std::uint32_t>(cuts.size() - 1));
    Tuple t;
    t.block_begin = cuts[k];
    t.block_end = cuts[k + 1];
    const std::int64_t len = t.block_end - t.block_begin;
    if (rng.below(8) == 0) {
      t.window_begin = rng.uniform(0, n_bar);
    } else {
      t.window_begin =
          std::clamp<std::int64_t>(t.block_begin + rng.uniform(-8, 8), 0, n_bar);
    }
    t.window_end = std::clamp<std::int64_t>(t.window_begin + len + rng.uniform(-8, 8),
                                            t.window_begin, n_bar);
    t.distance = rng.uniform(0, len);
    tuples.push_back(t);
  }
  return tuples;
}

void expect_max_fast_matches_naive(const std::vector<Tuple>& tuples, std::int64_t n,
                                   std::int64_t n_bar, const std::string& what) {
  const auto fast =
      combine_tuples(tuples, n, n_bar, CombineOptions{GapCost::kMax, true, false});
  const auto naive =
      combine_tuples_naive(tuples, n, n_bar, CombineOptions{GapCost::kMax, false, false});
  ASSERT_EQ(fast, naive) << what << " T=" << tuples.size();
}

TEST(Differential, MaxCombineAgreesOnPartitionedBlocks) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Pcg32 rng = derive_stream(seed, 0xDA7A);
    const std::int64_t n = rng.uniform(40, 600);
    const std::int64_t n_bar = std::max<std::int64_t>(1, n + rng.uniform(-30, 30));
    const std::size_t blocks = 2 + rng.below(20);
    const std::size_t count = 1 + rng.below(3000);
    expect_max_fast_matches_naive(partitioned_tuples(n, n_bar, blocks, count, seed), n,
                                  n_bar, "seed=" + std::to_string(seed));
  }
}

TEST(Differential, MaxCombineSkipsASingleBlock) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::int64_t n = 300;
    const std::int64_t n_bar = 320;
    auto tuples = partitioned_tuples(n, n_bar, 1, 40 + 60 * seed, seed);
    expect_max_fast_matches_naive(tuples, n, n_bar, "seed=" + std::to_string(seed));
    // One block [b, e) inside [0, n): every segment is a single block too.
    for (Tuple& t : tuples) {
      t.block_begin = 100;
      t.block_end = 180;
    }
    expect_max_fast_matches_naive(tuples, n, n_bar, "inner seed=" + std::to_string(seed));
  }
}

TEST(Differential, MaxCombineAgreesOnEmptyWindowsAndDuplicates) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Pcg32 rng = derive_stream(seed, 0xE3E3);
    const std::int64_t n = 200;
    const std::int64_t n_bar = 200;
    auto tuples = partitioned_tuples(n, n_bar, 2 + rng.below(10), 400, seed);
    for (Tuple& t : tuples) {
      if (rng.below(3) == 0) t.window_end = t.window_begin;  // empty window
    }
    const std::size_t original = tuples.size();
    for (std::size_t i = 0; i < original; i += 1 + rng.below(4)) {
      tuples.push_back(tuples[i]);  // exact duplicates, several times over
      if (rng.below(2) == 0) tuples.push_back(tuples[i]);
    }
    expect_max_fast_matches_naive(tuples, n, n_bar, "seed=" + std::to_string(seed));
  }
}

TEST(Differential, MaxCombineAgreesOnUlamRoundOneTuples) {
  // The real round-1 output of Theorem 4 at n = 2048: about 75k tuples in a
  // dozen blocks.  The fast solver runs on all of them; the O(T²) oracle on
  // an every-k-th subset that keeps each block's many windows.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto s = core::random_permutation(2048, seed);
    const auto t = core::plant_edits(s, 32, seed + 100, true).text;
    ulam_mpc::UlamMpcParams params;
    params.keep_tuples = true;
    params.backend = mpc::BackendKind::kThread;
    params.workers = 2;
    const auto result = ulam_mpc::ulam_distance_mpc(s, t, params);
    const auto n = static_cast<std::int64_t>(s.size());
    const auto n_bar = static_cast<std::int64_t>(t.size());
    ASSERT_GT(result.tuples.size(), 10000U);
    EXPECT_EQ(combine_tuples(result.tuples, n, n_bar), result.distance);
    EXPECT_GE(result.distance, ulam_distance(s, t));
    for (const std::size_t stride : {23, 31}) {
      std::vector<Tuple> subset;
      for (std::size_t i = seed; i < result.tuples.size(); i += stride) {
        subset.push_back(result.tuples[i]);
      }
      expect_max_fast_matches_naive(subset, n, n_bar,
                                    "seed=" + std::to_string(seed) +
                                        " stride=" + std::to_string(stride));
    }
  }
}

TEST(Differential, LcsFastPathAgreesOnMixedAlphabets) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Pcg32 rng = derive_stream(seed, 0x1C5);
    // Partially overlapping repeat-free alphabets.
    const auto n = 1 + rng.below(80);
    SymString a(n);
    SymString b(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      a[i] = static_cast<Symbol>(i * 2);            // evens
      b[i] = static_cast<Symbol>(i * 2 + (i % 3 ? 0 : 1));  // some odds
    }
    // Shuffle both.
    for (std::size_t i = n; i > 1; --i) std::swap(a[i - 1], a[rng.below(static_cast<std::uint32_t>(i))]);
    for (std::size_t i = n; i > 1; --i) std::swap(b[i - 1], b[rng.below(static_cast<std::uint32_t>(i))]);
    ASSERT_EQ(lcs_length_repeat_free(a, b), lcs_length(a, b)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace mpcsd::seq
