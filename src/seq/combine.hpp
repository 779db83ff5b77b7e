// The single-machine combine DP (Algorithms 2 and 4 of the paper).
//
// Round 1 of both MPC algorithms produces tuples <[l, r), [gamma, kappa), d>
// — a block of s, a candidate substring of s̄, and their (Ulam or edit)
// distance.  The combine round selects a monotone subset of tuples covering
// a transformation of s into s̄:
//
//   D[a] = min( gap(origin -> a) + d_a,
//               min over b with r_b <= l_a, kappa_b <= gamma_a of
//                   D[b] + gap(b -> a) + d_a )
//   answer = min(gap(whole), min_a D[a] + gap(a -> end)),
//
// where gap(b -> a) charges the uncovered stretch between consecutive
// tuples.  The paper uses two gap models:
//   * GapCost::kMax — max(l_a - r_b, gamma_a - kappa_b): substitute the
//     paired part, indel the rest (Algorithm 2, Ulam).
//   * GapCost::kSum — (l_a - r_b) + (gamma_a - kappa_b): delete + insert
//     (Algorithm 4, edit distance).
//
// Both a naive O(T²) reference and fast solvers are provided:
//   * kSum: event-ordered Fenwick sweep, O(T log T);
//   * kMax: the same diagonal split as the sparse Ulam DP (the max cost
//     splits on r_b - kappa_b vs l_a - gamma_a) via divide-and-conquer
//     — the "suitable data structure" the paper alludes to in Section
//     5.2.3.  No transition joins two tuples of one block, so segments
//     split on the block boundary nearest their middle, a one-block segment
//     returns at once, and segments of <= 32 tuples run a direct double
//     loop.  With T tuples in k blocks that is O(T log T · log k + n +
//     n_bar) time (O(T log² T + n + n_bar) when every tuple has its own
//     block), O(T + n + n_bar) scratch allocated once per call, and no
//     per-level sort unless blocks nest.  The metered work is fixed at the
//     balanced-halving charge W(T) = 10·T + W(⌊T/2⌋) + W(T - ⌊T/2⌋),
//     W(T <= 1) = 0, whatever the block layout.
//
// `allow_overlap` (naive, kSum only) implements the Section 5.2.3 remark:
// two tuples whose windows intersect may both be chosen if gamma_b <=
// gamma_a, paying the cost of removing the common part.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {

/// A (block, candidate substring, distance) tuple.  Intervals half-open.
struct Tuple {
  std::int64_t block_begin = 0;
  std::int64_t block_end = 0;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;
  std::int64_t distance = 0;

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

enum class GapCost : std::uint8_t {
  kMax,  ///< substitute-then-indel gap charging (Ulam, Algorithm 2)
  kSum,  ///< delete-plus-insert gap charging (edit distance, Algorithm 4)
};

struct CombineOptions {
  GapCost gap = GapCost::kMax;
  bool use_fast = true;       ///< Fenwick/CDQ solver instead of O(T²)
  bool allow_overlap = false; ///< Section 5.2.3 overlap remark (naive+kSum only)
};

/// Combines tuples into a full transformation cost of s (length n) into s̄
/// (length n_bar).  The result is always the cost of a realizable
/// transformation, hence an upper bound on the true distance.
std::int64_t combine_tuples(std::vector<Tuple> tuples, std::int64_t n,
                            std::int64_t n_bar, const CombineOptions& options = {},
                            std::uint64_t* work = nullptr);

/// O(T²) reference (used by tests to pin the fast solvers).
std::int64_t combine_tuples_naive(std::vector<Tuple> tuples, std::int64_t n,
                                  std::int64_t n_bar,
                                  const CombineOptions& options = {},
                                  std::uint64_t* work = nullptr);

/// Serialises a length-prefixed batch of tuples onto a message.
void write_tuples(ByteWriter& writer, std::span<const Tuple> tuples);

/// Reads every tuple batch from a concatenated mailbox payload.
std::vector<Tuple> read_all_tuples(const Bytes& payload);

/// Zero-copy variant: reads every tuple batch straight out of a mailbox
/// view (one fragment per sender payload) without concatenating.
std::vector<Tuple> read_all_tuples(const ByteChain& payload);

}  // namespace mpcsd::seq
