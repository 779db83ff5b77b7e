// google-benchmark micro-benchmarks for the sequential engines — the unit
// costs underlying the Table 1 work columns, plus the DESIGN.md ablations
// (dense vs sparse Ulam, naive vs fast combine, exact vs 3+eps unit), and
// Algorithm 1's per-block candidate scoring.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "seq/approx_edit.hpp"
#include "seq/myers.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"
#include "ulam_mpc/solver.hpp"

namespace {

using namespace mpcsd;

void BM_EditDistanceFullDp(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::random_string(n, 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceFullDp)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_EditDistanceBandedNearPair(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::plant_edits(a, 32, 3, false).text;
  const auto limit = static_cast<std::int64_t>(std::max(a.size(), b.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance_bounded(a, b, limit));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceBandedNearPair)->Range(1024, 65536)->Complexity(benchmark::oN);

void BM_EditDistanceMyers(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::random_string(n, 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance_myers(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceMyers)->Range(256, 16384)->Complexity(benchmark::oNSquared);

void BM_UlamSparse(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_permutation(n, 1);
  const auto b = core::plant_edits(a, n / 20, 2, true).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::ulam_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UlamSparse)->Range(1024, 65536)->Complexity(benchmark::oNLogN);

void BM_UlamDense(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_permutation(n, 1);
  const auto b = core::plant_edits(a, n / 20, 2, true).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::ulam_distance_dense(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UlamDense)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_LocalUlam(benchmark::State& state) {
  const auto n = state.range(0);
  const auto t = core::random_permutation(n, 5);
  const auto edited = core::plant_edits(t, n / 30, 6, true).text;
  const SymView block = subview(edited, {n / 4, n / 4 + n / 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::local_ulam(block, t));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LocalUlam)->Range(1024, 32768)->Complexity(benchmark::oNLogN);

// Round 1 of Theorem 4 at the solver's defaults (eps' = 0.25, B =
// ceil(n^{2/3}) = 407 at n = 8192): Algorithm 1 on each of the 21 blocks of
// one permutation with n/64 planted edits.  Scoring the candidate windows,
// not lulam (BM_LocalUlam), is where this round spends its time; items are
// the windows scored.
void BM_UlamBlockCandidates(benchmark::State& state) {
  constexpr std::int64_t kN = 8192;
  const ulam_mpc::UlamMpcParams defaults;
  const auto s = core::random_permutation(kN, 1);
  const auto t = core::plant_edits(s, kN / 64, 2, true).text;
  std::unordered_map<Symbol, std::int64_t> pos_in_t;
  for (std::size_t j = 0; j < t.size(); ++j) pos_in_t.emplace(t[j], static_cast<std::int64_t>(j));
  std::vector<std::int64_t> positions;
  for (const Symbol v : s) {
    const auto it = pos_in_t.find(v);
    positions.push_back(it == pos_in_t.end() ? -1 : it->second);
  }
  ulam_mpc::CandidateParams params;
  params.eps_prime = defaults.epsilon / 2.0;
  params.theta_constant = defaults.theta_constant;
  params.n = kN;
  params.n_bar = static_cast<std::int64_t>(t.size());
  const std::int64_t block = ipow_ceil(kN, 1.0 - defaults.x);
  std::int64_t windows = 0;
  for (auto _ : state) {
    for (std::int64_t begin = 0; begin < kN; begin += block) {
      const auto end = std::min(kN, begin + block);
      const std::vector<std::int64_t> feed(positions.begin() + begin, positions.begin() + end);
      Pcg32 rng = derive_stream(defaults.seed, static_cast<std::uint64_t>(begin));
      ulam_mpc::CandidateStats stats;
      benchmark::DoNotOptimize(ulam_mpc::build_block_candidates(begin, feed, params, rng, &stats));
      windows += static_cast<std::int64_t>(stats.candidates_evaluated);
    }
  }
  state.SetItemsProcessed(windows);
}
BENCHMARK(BM_UlamBlockCandidates)->Unit(benchmark::kMillisecond);

void BM_ApproxEditNear(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 7);
  const auto b = core::plant_edits(a, 48, 8, false).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::approx_edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ApproxEditNear)->Range(1024, 32768)->Complexity(benchmark::oN);

void BM_ApproxEditFar(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 9);
  const auto b = core::block_shuffle(a, n / 8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::approx_edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ApproxEditFar)->Range(1024, 4096)->Iterations(1);

void BM_CombineFast(benchmark::State& state) {
  const auto count = state.range(0);
  Pcg32 rng = derive_stream(1, 2);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t i = 0; i < count; ++i) {
    seq::Tuple t;
    t.block_begin = rng.uniform(0, 9999);
    t.block_end = rng.uniform(t.block_begin + 1, 10000);
    t.window_begin = rng.uniform(0, 10000);
    t.window_end = rng.uniform(t.window_begin, 10000);
    t.distance = rng.uniform(0, 50);
    tuples.push_back(t);
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, 10000, 10000, options));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_CombineFast)->Range(256, 32768)->Complexity(benchmark::oNLogN);

// The shape of Theorem 4's round-2 input at n = 8192: 21 blocks that
// partition [0, n), about 8.7k candidate windows each near the block's
// diagonal.  Unlike BM_CombineFast's independent random blocks, most tuple
// pairs share a block, which the kMax solver never has to join.
void BM_CombineUlamShaped(benchmark::State& state) {
  constexpr std::int64_t kN = 8192;
  constexpr std::int64_t kBlocks = 21;
  constexpr std::int64_t kPerBlock = 8700;
  Pcg32 rng = derive_stream(1, 3);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t k = 0; k < kBlocks; ++k) {
    const std::int64_t begin = k * kN / kBlocks;
    const std::int64_t end = (k + 1) * kN / kBlocks;
    for (std::int64_t i = 0; i < kPerBlock; ++i) {
      seq::Tuple t;
      t.block_begin = begin;
      t.block_end = end;
      t.window_begin = std::clamp<std::int64_t>(begin + rng.uniform(-128, 128), 0, kN);
      t.window_end = std::clamp<std::int64_t>(t.window_begin + (end - begin) +
                                                  rng.uniform(-128, 128),
                                              t.window_begin, kN);
      t.distance = rng.uniform(0, 64);
      tuples.push_back(t);
    }
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, kN, kN, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(tuples.size()));
}
BENCHMARK(BM_CombineUlamShaped)->Unit(benchmark::kMillisecond);

void BM_CombineNaive(benchmark::State& state) {
  const auto count = state.range(0);
  Pcg32 rng = derive_stream(1, 2);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t i = 0; i < count; ++i) {
    seq::Tuple t;
    t.block_begin = rng.uniform(0, 9999);
    t.block_end = rng.uniform(t.block_begin + 1, 10000);
    t.window_begin = rng.uniform(0, 10000);
    t.window_end = rng.uniform(t.window_begin, 10000);
    t.distance = rng.uniform(0, 50);
    tuples.push_back(t);
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  options.use_fast = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples_naive(tuples, 10000, 10000, options));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_CombineNaive)->Range(256, 4096)->Complexity(benchmark::oNSquared);

}  // namespace

BENCHMARK_MAIN();
