// Algorithm 1 of the paper: per-block candidate-substring construction for
// the Ulam MPC algorithm (round 1, one block per machine).
//
// Given a block s[l, r) and the position of each block character in s̄, the
// machine produces a set of tuples <[l, r), [gamma, kappa), d> where
// s̄[gamma, kappa) is a candidate substring and d its exact Ulam distance to
// the block.  Candidates come from two constructions:
//
//   * u_i < B/2  (Lemma 1): solve local Ulam (lulam) to locate the best
//     window s̄[gamma*, kappa*); grid the starting/ending points within
//     2*û of it with gap G = max(floor(eps'*u), 1).
//   * u_i >= B/2 (Lemma 2): sample a hitting set I of block characters at
//     rate theta = (theta_constant / (eps'*B)) * ln(n); every unchanged
//     character anchors a window, gridded within û of the anchor.
//
// Since u_i is unknown, all guesses u = (1+eps')^j are tried; guesses below
// the lulam optimum d* are skipped (no window can be that close, so such a
// level can never be the one whose analysis applies).  Candidates are
// deduplicated across levels and each is evaluated once with the
// band-filtered exact Ulam engine (capped at 4û so that a level's good
// candidate — at distance <= (1+2eps')u — is never pruned).
//
// The engine runs on the block's maximal diagonal runs, built once per
// block: a window's runs are the block's runs clipped to the window, which
// is exact because the block's match points have distinct p and (s̄ being
// repeat-free) distinct q.  A window thus costs O(#runs) plus the combine
// DP over the runs in its band, never a copy or sort of its match points.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/combine.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"
#include "common/rng.hpp"

namespace mpcsd::ulam_mpc {

/// Round-1 output tuples reuse the shared combine-DP tuple type.
using Tuple = seq::Tuple;

struct CandidateParams {
  double eps_prime = 0.25;       ///< eps' = eps/2
  double theta_constant = 8.0;   ///< paper uses 8; benches may lower it
  std::int64_t n = 0;            ///< |s| (drives the ln n sampling rate)
  std::int64_t n_bar = 0;        ///< |s̄|
};

struct CandidateStats {
  std::size_t candidates_evaluated = 0;
  std::size_t candidates_pruned = 0;   ///< bounded DP exceeded its cap
  std::size_t anchors_sampled = 0;     ///< |I| before diagonal dedup
  std::size_t anchors_distinct = 0;    ///< distinct (gamma, kappa) anchors
  std::uint64_t work = 0;
};

/// Runs Algorithm 1 for one block.  `block_begin` is the block's offset in
/// s; `positions[p]` is the position of block character p in s̄, or -1 if
/// the character does not occur in s̄.  Returns the candidate tuples.
std::vector<Tuple> build_block_candidates(std::int64_t block_begin,
                                          const std::vector<std::int64_t>& positions,
                                          const CandidateParams& params,
                                          Pcg32& rng, CandidateStats* stats = nullptr);

}  // namespace mpcsd::ulam_mpc
