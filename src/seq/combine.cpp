#include "seq/combine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "common/fenwick.hpp"

namespace mpcsd::seq {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

std::int64_t gap(GapCost g, std::int64_t ds, std::int64_t dt) {
  return g == GapCost::kMax ? std::max(ds, dt) : ds + dt;
}

void sort_tuples(std::vector<Tuple>& tuples) {
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    if (a.block_begin != b.block_begin) return a.block_begin < b.block_begin;
    if (a.window_begin != b.window_begin) return a.window_begin < b.window_begin;
    if (a.window_end != b.window_end) return a.window_end < b.window_end;
    return a.distance < b.distance;
  });
}

void validate(const std::vector<Tuple>& tuples, std::int64_t n, std::int64_t n_bar) {
  for (const Tuple& t : tuples) {
    MPCSD_EXPECTS(0 <= t.block_begin && t.block_begin < t.block_end && t.block_end <= n);
    MPCSD_EXPECTS(0 <= t.window_begin && t.window_begin <= t.window_end &&
                  t.window_end <= n_bar);
    MPCSD_EXPECTS(t.distance >= 0);
  }
}

std::int64_t finish(const std::vector<Tuple>& tuples,
                    const std::vector<std::int64_t>& dp, GapCost g,
                    std::int64_t n, std::int64_t n_bar) {
  std::int64_t best = gap(g, n, n_bar);  // use no tuple at all
  for (std::size_t a = 0; a < tuples.size(); ++a) {
    if (dp[a] >= kInf) continue;
    best = std::min(best, dp[a] + gap(g, n - tuples[a].block_end,
                                      n_bar - tuples[a].window_end));
  }
  return best;
}

/// Fast kSum solver: one Fenwick sweep in (insert by r, query by l) order.
/// Transition cost (l-r') + (gamma-kappa') decomposes as
/// (l+gamma) + (D[b] - r' - kappa'), needing r' <= l and kappa' <= gamma.
void solve_sum_fast(const std::vector<Tuple>& tuples, std::vector<std::int64_t>& dp,
                    std::uint64_t* work) {
  const std::size_t m = tuples.size();
  std::vector<std::int64_t> kappas;
  kappas.reserve(m);
  for (const Tuple& t : tuples) kappas.push_back(t.window_end);
  std::sort(kappas.begin(), kappas.end());
  kappas.erase(std::unique(kappas.begin(), kappas.end()), kappas.end());

  std::vector<std::size_t> by_end(m);
  for (std::size_t i = 0; i < m; ++i) by_end[i] = i;
  std::sort(by_end.begin(), by_end.end(), [&](std::size_t a, std::size_t b) {
    return tuples[a].block_end < tuples[b].block_end;
  });

  FenwickMin<std::int64_t> fen(kappas.size());
  std::size_t ins = 0;
  for (std::size_t a = 0; a < m; ++a) {  // tuples sorted by block_begin
    while (ins < m && tuples[by_end[ins]].block_end <= tuples[a].block_begin) {
      const std::size_t b = by_end[ins++];
      // dp[b] is final: block_begin[b] < block_end[b] <= block_begin[a]
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(kappas.begin(), kappas.end(), tuples[b].window_end) -
          kappas.begin());
      fen.update(rank, dp[b] - tuples[b].block_end - tuples[b].window_end);
    }
    const auto pos = std::upper_bound(kappas.begin(), kappas.end(),
                                      tuples[a].window_begin) -
                     kappas.begin();
    if (pos > 0) {
      const std::int64_t best = fen.prefix_min(static_cast<std::size_t>(pos - 1));
      if (best < kInf) {
        dp[a] = std::min(dp[a], tuples[a].block_begin + tuples[a].window_begin +
                                    best + tuples[a].distance);
      }
    }
  }
  if (work != nullptr) *work += m * 6;
}

/// Work the kMax solver charges for T tuples: the cross steps of a balanced
/// halving down to single tuples, W(T) = 10·T + W(⌊T/2⌋) + W(T - ⌊T/2⌋) with
/// W(T <= 1) = 0.  A pure function of T, so the metered work does not depend
/// on where the solver really splits.  Returns {W(k), W(k + 1)}, since the
/// halves of k and k + 1 are again two neighbours.
std::pair<std::uint64_t, std::uint64_t> max_combine_work(std::uint64_t k) {
  if (k == 0) return {0, 0};
  if (k == 1) return {0, 20};
  const auto [wh, wh1] = max_combine_work(k / 2);  // W(h), W(h + 1), h = ⌊k/2⌋
  if (k % 2 == 0) return {10 * k + 2 * wh, 10 * (k + 1) + wh + wh1};
  return {10 * k + wh + wh1, 10 * (k + 1) + 2 * wh1};
}

/// kMax inputs and solver segments this short use a direct double loop.
constexpr std::size_t kMaxDirect = 32;

/// The kMax transitions among tuples [lo, hi), which already hold every
/// transition from before lo, by the O((hi - lo)²) double loop.
void solve_max_direct(const std::vector<Tuple>& tuples, std::vector<std::int64_t>& dp,
                      std::size_t lo, std::size_t hi) {
  for (std::size_t a = lo + 1; a < hi; ++a) {
    const Tuple& ta = tuples[a];
    for (std::size_t b = lo; b < a; ++b) {
      const Tuple& tb = tuples[b];
      if (tb.block_end > ta.block_begin || tb.window_end > ta.window_begin) continue;
      dp[a] = std::min(dp[a], dp[b] + ta.distance +
                                  std::max(ta.block_begin - tb.block_end,
                                           ta.window_begin - tb.window_end));
    }
  }
}

/// Fast kMax solver: divide-and-conquer on the block order.  The max gap
/// splits on the diagonal diag_b = r'-kappa' vs diag_a = l-gamma:
///   case A (diag_b <= diag_a): cost l - r', needs kappa' <= gamma
///     (r' <= l is implied);
///   case B (diag_b >  diag_a): cost gamma - kappa', needs r' <= l
///     (kappa' <= gamma is implied).
/// No transition joins two tuples of one block (r' > l' = l), so segments
/// split on block boundaries and a one-block segment has nothing to do.
/// Diagonals are ranked once; the index scratch and the Fenwick tree are
/// allocated once, and each sweep resets only the entries it touched.
class MaxCombineSolver {
 public:
  MaxCombineSolver(const std::vector<Tuple>& tuples, std::int64_t n, std::int64_t n_bar,
                   std::vector<std::int64_t>& dp)
      : tuples_(tuples),
        dp_(dp),
        point_rank_(tuples.size()),
        query_pos_(tuples.size()),
        by_gamma_(tuples.size()),
        by_kappa_(tuples.size()),
        scratch_(tuples.size()),
        fen_(rank_diagonals(n, n_bar)) {
    MPCSD_EXPECTS(tuples_.size() < (std::size_t{1} << 31));  // ranks fit 32 bits
    std::iota(by_gamma_.begin(), by_gamma_.end(), 0U);
    std::sort(by_gamma_.begin(), by_gamma_.end(),
              [&](std::uint32_t x, std::uint32_t y) { return gamma(x) < gamma(y); });
    solve(0, tuples_.size());
  }

 private:
  /// Fills point_rank_ (rank of r-kappa) and query_pos_ (how many ranks are
  /// <= l-gamma); returns the number of distinct diagonals.  Diagonals lie in
  /// [-n_bar, n], so a presence table ranks them in O(T + n + n_bar) — no
  /// more than the O(n) its callers spend building the tuples.
  std::size_t rank_diagonals(std::int64_t n, std::int64_t n_bar) {
    const auto point = [&](const Tuple& t) {
      return static_cast<std::size_t>(t.block_end - t.window_end + n_bar);
    };
    const auto query = [&](const Tuple& t) {
      return static_cast<std::size_t>(t.block_begin - t.window_begin + n_bar);
    };
    // below[v] = number of distinct shifted diagonals < v.
    std::vector<std::uint32_t> below(static_cast<std::size_t>(n + n_bar) + 2, 0);
    for (const Tuple& t : tuples_) {
      below[point(t) + 1] = 1;
      below[query(t) + 1] = 1;
    }
    for (std::size_t v = 1; v < below.size(); ++v) below[v] += below[v - 1];
    for (std::size_t i = 0; i < tuples_.size(); ++i) {
      point_rank_[i] = below[point(tuples_[i])];
      query_pos_[i] = below[query(tuples_[i]) + 1];
    }
    return below.back();
  }

  [[nodiscard]] std::int64_t kappa(std::uint32_t i) const {
    return tuples_[i].window_end;
  }
  [[nodiscard]] std::int64_t gamma(std::uint32_t i) const {
    return tuples_[i].window_begin;
  }

  /// On entry by_gamma_[lo, hi) lists lo..hi-1 in window_begin order; on
  /// exit by_kappa_[lo, hi) lists them in window_end order.  The gamma order
  /// is split stably on the way down and the kappa order merged on the way
  /// up, so no level sorts: only the root (by gamma) and the leaves (by
  /// kappa) do.
  void solve(std::size_t lo, std::size_t hi) {
    const auto kappa_less = [&](std::uint32_t x, std::uint32_t y) {
      return kappa(x) < kappa(y);
    };
    const auto order = [&](std::size_t from, std::size_t to) {
      return std::span(by_kappa_).subspan(from, to - from);
    };
    const bool one_block = tuples_[lo].block_begin == tuples_[hi - 1].block_begin;
    if (one_block || hi - lo <= kMaxDirect) {
      // A leaf: one block holds no transition, a short segment is direct.
      if (!one_block) solve_max_direct(tuples_, dp_, lo, hi);
      const auto run = order(lo, hi);
      std::iota(run.begin(), run.end(), static_cast<std::uint32_t>(lo));
      std::sort(run.begin(), run.end(), kappa_less);
      return;
    }
    const std::size_t mid = split(lo, hi);
    // Stable split of the gamma order into the two halves.
    std::size_t low = lo;
    std::size_t high = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = by_gamma_[k];
      (i < mid ? by_gamma_[low++] : scratch_[high++]) = i;
    }
    std::copy_n(scratch_.begin(), high,
                by_gamma_.begin() + static_cast<std::ptrdiff_t>(low));
    solve(lo, mid);
    cross(lo, mid, hi);
    solve(mid, hi);
    const auto merged = std::span(scratch_).first(hi - lo);
    std::merge(order(lo, mid).begin(), order(lo, mid).end(), order(mid, hi).begin(),
               order(mid, hi).end(), merged.begin(), kappa_less);
    std::copy(merged.begin(), merged.end(), order(lo, hi).begin());
  }

  /// The block boundary nearest the middle of [lo, hi); one exists since lo
  /// and hi - 1 lie in different blocks.
  [[nodiscard]] std::size_t split(std::size_t lo, std::size_t hi) const {
    const std::size_t half = lo + (hi - lo) / 2;
    const auto first = tuples_.begin();
    const auto by_block = [](const Tuple& a, const Tuple& b) {
      return a.block_begin < b.block_begin;
    };
    const auto at = [&](std::size_t i) { return first + static_cast<std::ptrdiff_t>(i); };
    const auto run_begin = static_cast<std::size_t>(
        std::lower_bound(at(lo), at(half), *at(half), by_block) - first);
    const auto run_end = static_cast<std::size_t>(
        std::upper_bound(at(half), at(hi), *at(half), by_block) - first);
    if (run_begin == lo) return run_end;
    if (run_end == hi) return run_begin;
    return run_end - half < half - run_begin ? run_end : run_begin;
  }

  void cross(std::size_t lo, std::size_t mid, std::size_t hi) {
    const std::size_t nl = mid - lo;
    const std::size_t ranks = fen_.size();

    // Case A: insert by kappa', query by gamma; prefix-min over diag.
    const auto left_a = std::span(by_kappa_).subspan(lo, nl);
    std::size_t li = 0;
    for (const std::uint32_t a : std::span(by_gamma_).subspan(mid, hi - mid)) {
      while (li < nl && kappa(left_a[li]) <= gamma(a)) {
        const std::uint32_t b = left_a[li++];
        fen_.update(point_rank_[b], dp_[b] - tuples_[b].block_end);
      }
      if (li == 0 || query_pos_[a] == 0) continue;
      const std::int64_t best = fen_.prefix_min(query_pos_[a] - 1);
      if (best < kInf) {
        dp_[a] = std::min(dp_[a], tuples_[a].block_begin + best + tuples_[a].distance);
      }
    }
    for (std::size_t i = 0; i < li; ++i) fen_.reset(point_rank_[left_a[i]]);

    // Case B: insert by r', query by l; suffix-min over diag (reversed).
    // The right half is already in block_begin order, and so is the left
    // one in block_end order unless blocks nest.
    const auto left_b = std::span(scratch_).first(nl);
    std::iota(left_b.begin(), left_b.end(), static_cast<std::uint32_t>(lo));
    const auto by_end = [&](std::uint32_t x, std::uint32_t y) {
      return tuples_[x].block_end < tuples_[y].block_end;
    };
    if (!std::is_sorted(left_b.begin(), left_b.end(), by_end)) {
      std::sort(left_b.begin(), left_b.end(), by_end);
    }
    li = 0;
    for (std::size_t a = mid; a < hi; ++a) {
      while (li < nl && tuples_[left_b[li]].block_end <= tuples_[a].block_begin) {
        const std::uint32_t b = left_b[li++];
        fen_.update(ranks - 1 - point_rank_[b], dp_[b] - tuples_[b].window_end);
      }
      // diag_b > diag_a  <=>  reversed rank < ranks - query_pos
      if (li == 0 || query_pos_[a] == ranks) continue;
      const std::int64_t best = fen_.prefix_min(ranks - 1 - query_pos_[a]);
      if (best < kInf) {
        dp_[a] = std::min(dp_[a], tuples_[a].window_begin + best + tuples_[a].distance);
      }
    }
    for (std::size_t i = 0; i < li; ++i) fen_.reset(ranks - 1 - point_rank_[left_b[i]]);
  }

  const std::vector<Tuple>& tuples_;
  std::vector<std::int64_t>& dp_;
  std::vector<std::uint32_t> point_rank_;
  std::vector<std::uint32_t> query_pos_;
  std::vector<std::uint32_t> by_gamma_;
  std::vector<std::uint32_t> by_kappa_;
  std::vector<std::uint32_t> scratch_;
  FenwickMin<std::int64_t> fen_;
};

}  // namespace

std::int64_t combine_tuples_naive(std::vector<Tuple> tuples, std::int64_t n,
                                  std::int64_t n_bar, const CombineOptions& options,
                                  std::uint64_t* work) {
  validate(tuples, n, n_bar);
  sort_tuples(tuples);
  const std::size_t m = tuples.size();
  std::vector<std::int64_t> dp(m, kInf);
  for (std::size_t a = 0; a < m; ++a) {
    const Tuple& ta = tuples[a];
    dp[a] = gap(options.gap, ta.block_begin, ta.window_begin) + ta.distance;
    for (std::size_t b = 0; b < a; ++b) {
      const Tuple& tb = tuples[b];
      if (tb.block_end > ta.block_begin) continue;
      std::int64_t cost;
      if (tb.window_end <= ta.window_begin) {
        cost = gap(options.gap, ta.block_begin - tb.block_end,
                   ta.window_begin - tb.window_end);
      } else if (options.allow_overlap && options.gap == GapCost::kSum &&
                 tb.window_begin <= ta.window_begin) {
        // Overlapping windows: keep both, pay for deleting the common part
        // from the earlier tuple's output (Section 5.2.3).
        cost = (ta.block_begin - tb.block_end) + (tb.window_end - ta.window_begin);
      } else {
        continue;
      }
      dp[a] = std::min(dp[a], dp[b] + cost + ta.distance);
    }
  }
  if (work != nullptr) *work += m * m + m;
  return finish(tuples, dp, options.gap, n, n_bar);
}

void write_tuples(ByteWriter& writer, std::span<const Tuple> tuples) {
  writer.reserve(writer.size() + sizeof(std::uint64_t) + tuples.size() * sizeof(Tuple));
  writer.put<std::uint64_t>(tuples.size());
  for (const Tuple& t : tuples) writer.put(t);
}

std::vector<Tuple> read_all_tuples(const Bytes& payload) {
  std::vector<Tuple> out;
  ByteReader reader(payload);
  while (!reader.exhausted()) {
    const auto count = reader.get<std::uint64_t>();
    out.reserve(out.size() + count);
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(reader.get<Tuple>());
  }
  return out;
}

std::vector<Tuple> read_all_tuples(const ByteChain& payload) {
  std::vector<Tuple> out;
  // Batches never straddle sender payloads, so nearly every read stays on
  // the reader's single-fragment fast path.
  out.reserve(payload.total_bytes() / sizeof(Tuple) + 1);
  ChainReader reader(payload);
  while (!reader.exhausted()) {
    const auto count = reader.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(reader.get<Tuple>());
  }
  return out;
}

std::int64_t combine_tuples(std::vector<Tuple> tuples, std::int64_t n,
                            std::int64_t n_bar, const CombineOptions& options,
                            std::uint64_t* work) {
  if (!options.use_fast || options.allow_overlap) {
    return combine_tuples_naive(std::move(tuples), n, n_bar, options, work);
  }
  validate(tuples, n, n_bar);
  sort_tuples(tuples);
  const std::size_t m = tuples.size();
  std::vector<std::int64_t> dp(m, kInf);
  for (std::size_t a = 0; a < m; ++a) {
    dp[a] = gap(options.gap, tuples[a].block_begin, tuples[a].window_begin) +
            tuples[a].distance;
  }
  if (options.gap == GapCost::kSum) {
    solve_sum_fast(tuples, dp, work);
  } else {
    // Round 1 of Theorem 4 makes ~10^5 calls per request with T <= 16.
    if (m <= kMaxDirect) {
      solve_max_direct(tuples, dp, 0, m);
    } else {
      const MaxCombineSolver solver(tuples, n, n_bar, dp);
      (void)solver;
    }
    if (work != nullptr) *work += max_combine_work(m).first;
  }
  return finish(tuples, dp, options.gap, n, n_bar);
}

}  // namespace mpcsd::seq
