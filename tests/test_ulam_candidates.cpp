// Algorithm 1 (per-block Ulam candidate construction): tuple validity, the
// Lemma 1/2 locality structure, and the Lemma 3 cover property evaluated
// against an explicit optimal alignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "edit_mpc/candidates.hpp"
#include "seq/alignment.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::ulam_mpc {
namespace {

std::vector<std::int64_t> positions_of(SymView block, SymView t) {
  std::unordered_map<Symbol, std::int64_t> pos;
  for (std::size_t j = 0; j < t.size(); ++j) pos.emplace(t[j], static_cast<std::int64_t>(j));
  std::vector<std::int64_t> out;
  for (const Symbol v : block) {
    const auto it = pos.find(v);
    out.push_back(it == pos.end() ? -1 : it->second);
  }
  return out;
}

std::vector<Tuple> run_block(SymView s, SymView t, std::int64_t begin,
                             std::int64_t end, double eps_prime,
                             std::uint64_t seed, CandidateStats* stats = nullptr) {
  CandidateParams params;
  params.eps_prime = eps_prime;
  params.theta_constant = 8.0;
  params.n = static_cast<std::int64_t>(s.size());
  params.n_bar = static_cast<std::int64_t>(t.size());
  Pcg32 rng = derive_stream(seed, 0xCAFE);
  return build_block_candidates(begin, positions_of(subview(s, {begin, end}), t),
                                params, rng, stats);
}

TEST(UlamCandidates, TupleDistancesAreExact) {
  const auto s = core::random_permutation(400, 1);
  const auto t = core::plant_edits(s, 30, 2, true).text;
  const auto tuples = run_block(s, t, 100, 200, 0.25, 3);
  ASSERT_FALSE(tuples.empty());
  for (const Tuple& tu : tuples) {
    EXPECT_EQ(tu.block_begin, 100);
    EXPECT_EQ(tu.block_end, 200);
    ASSERT_GE(tu.window_begin, 0);
    ASSERT_LE(tu.window_end, static_cast<std::int64_t>(t.size()));
    const auto exact = seq::ulam_distance(
        subview(s, {tu.block_begin, tu.block_end}),
        subview(t, {tu.window_begin, tu.window_end}));
    ASSERT_EQ(tu.distance, exact)
        << "window [" << tu.window_begin << "," << tu.window_end << ")";
  }
}

TEST(UlamCandidates, ExactCopyBlockYieldsZeroTuple) {
  const auto t = core::random_permutation(300, 4);
  // Block 50..120 of s IS t[50..120) (identical strings).
  const auto tuples = run_block(t, t, 50, 120, 0.25, 5);
  const bool has_zero = std::any_of(tuples.begin(), tuples.end(), [](const Tuple& tu) {
    return tu.distance == 0;
  });
  EXPECT_TRUE(has_zero);
}

TEST(UlamCandidates, Lemma1LulamWindowLocality) {
  // For blocks whose opt image is close (u_i < B/2), the lulam window's
  // endpoints are within 2*u_i of the opt image endpoints.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_permutation(300, seed);
    const auto t = core::plant_edits(s, 12, seed + 77, true).text;
    const std::int64_t bsize = 60;
    const auto blocks = edit_mpc::make_blocks(300, bsize);
    const auto images = seq::block_images(s, t, blocks);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const SymView block = subview(s, blocks[i]);
      const auto u = seq::ulam_distance(block, subview(t, images[i]));
      if (u >= bsize / 2 || u == 0) continue;
      const auto local = seq::local_ulam(block, t);
      EXPECT_LE(std::abs(local.window.begin - images[i].begin), 2 * u)
          << "seed=" << seed << " block=" << i;
      EXPECT_LE(std::abs(local.window.end - images[i].end), 2 * u)
          << "seed=" << seed << " block=" << i;
    }
  }
}

TEST(UlamCandidates, Lemma3CoverProperty) {
  // For every block with a qualifying opt image, Algorithm 1 outputs a
  // candidate [a', b') with a_i <= a' <= a_i + eps'*u_i and
  // b_i - eps'*u_i <= b' <= b_i (conditions 1 and 2).
  const double eps_prime = 0.25;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto s = core::random_permutation(400, seed);
    const auto t = core::plant_edits(s, 20, seed + 13, true).text;
    const std::int64_t bsize = 80;
    const auto blocks = edit_mpc::make_blocks(400, bsize);
    const auto images = seq::block_images(s, t, blocks);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const SymView block = subview(s, blocks[i]);
      const auto u = seq::ulam_distance(block, subview(t, images[i]));
      if (u == 0) continue;  // handled by the exact-tuple test
      // Lemma 3 gate: small distance, or enough unchanged characters.  With
      // 20 edits on 400 symbols, u < B/2 always holds here.
      ASSERT_LT(u, bsize / 2);
      const auto tuples =
          run_block(s, t, blocks[i].begin, blocks[i].end, eps_prime, seed + i);
      const double slack = eps_prime * static_cast<double>(u);
      const bool covered = std::any_of(
          tuples.begin(), tuples.end(), [&](const Tuple& tu) {
            return tu.window_begin >= images[i].begin &&
                   static_cast<double>(tu.window_begin) <=
                       static_cast<double>(images[i].begin) + slack &&
                   tu.window_end <= images[i].end &&
                   static_cast<double>(tu.window_end) >=
                       static_cast<double>(images[i].end) - slack;
          });
      EXPECT_TRUE(covered) << "seed=" << seed << " block=" << i << " u=" << u;
    }
  }
}

TEST(UlamCandidates, HighDistanceBlockStillAnchorsViaHittingSet) {
  // Move a block far away: its opt image is distant but the characters are
  // unchanged, so the hitting-set path must anchor a candidate near the
  // block's actual location in t.
  const auto s = core::random_permutation(600, 21);
  SymString t(s.begin(), s.end());
  // Rotate by 200: every block's content now lives 200 positions away.
  std::rotate(t.begin(), t.begin() + 200, t.end());
  const std::int64_t begin = 0;
  const std::int64_t end = 150;  // block size 150, distance to its image large
  CandidateStats stats;
  const auto tuples = run_block(s, t, begin, end, 0.25, 9, &stats);
  // The block s[0,150) appears verbatim at t[400, 550): some candidate must
  // essentially find it (distance far below the trivial 150).
  const auto best = std::min_element(tuples.begin(), tuples.end(),
                                     [](const Tuple& a, const Tuple& b) {
                                       return a.distance < b.distance;
                                     });
  ASSERT_NE(best, tuples.end());
  EXPECT_EQ(best->distance, 0);
  EXPECT_EQ(best->window_begin, 400);
  EXPECT_EQ(best->window_end, 550);
}

TEST(UlamCandidates, CandidateCountIsModest) {
  // Õ_eps(1) candidates per block: assert a generous absolute budget.
  const auto s = core::random_permutation(2000, 31);
  const auto t = core::plant_edits(s, 100, 32, true).text;
  CandidateStats stats;
  const auto tuples = run_block(s, t, 500, 1000, 0.25, 33, &stats);
  EXPECT_GT(tuples.size(), 0u);
  EXPECT_LT(stats.candidates_evaluated, 20000u);
}

TEST(UlamCandidates, NoMatchesProducesOnlyTrivialCandidates) {
  // Block symbols absent from t entirely.
  SymString s(50);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = 10000 + static_cast<Symbol>(i);
  const auto t = core::random_permutation(100, 3);
  CandidateParams params;
  params.eps_prime = 0.25;
  params.n = 50;
  params.n_bar = 100;
  Pcg32 rng = derive_stream(1, 2);
  const auto tuples = build_block_candidates(0, std::vector<std::int64_t>(50, -1),
                                             params, rng);
  for (const Tuple& tu : tuples) {
    EXPECT_GE(tu.distance, 50 - (tu.window_end - tu.window_begin));
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: Algorithm 1 with the point-slice window evaluator it
// used before run clipping.  Each window slices its match points out of a
// q-ordered copy, keeps the diagonal band, sorts them by p and calls
// seq::bounded_ulam_from_match_points.  The window grid is a copy of
// build_block_candidates', so both must emit the same tuples in the same
// order and the same stats.  The oracle also counts the edge cases its
// windows reached, so the cases can show that they cover them.

struct EdgeCounts {
  std::size_t clamped_at_zero = 0;
  std::size_t clamped_at_n_bar = 0;
  std::size_t empty = 0;
  std::size_t cap_below_length_gap = 0;
  std::size_t out_of_band = 0;
  std::size_t pruned_in_band = 0;
};

class PointSliceEvaluator {
 public:
  PointSliceEvaluator(std::int64_t block_begin, const std::vector<std::int64_t>& positions,
                      std::int64_t n_bar, CandidateStats* stats, EdgeCounts* edges)
      : block_begin_(block_begin),
        block_len_(static_cast<std::int64_t>(positions.size())),
        n_bar_(n_bar),
        stats_(stats),
        edges_(edges) {
    for (std::size_t p = 0; p < positions.size(); ++p) {
      if (positions[p] >= 0) {
        pts_.push_back(seq::MatchPoint{static_cast<std::int64_t>(p), positions[p]});
      }
    }
    by_q_ = pts_;
    std::sort(by_q_.begin(), by_q_.end(),
              [](const seq::MatchPoint& a, const seq::MatchPoint& b) { return a.q < b.q; });
  }

  [[nodiscard]] const std::vector<seq::MatchPoint>& points() const noexcept { return pts_; }
  [[nodiscard]] std::uint64_t work() const noexcept { return work_; }

  void evaluate(std::int64_t sp, std::int64_t ep, std::int64_t cap, std::vector<Tuple>& out) {
    const bool low = sp < 0;
    const bool high = ep > n_bar_;
    sp = std::clamp<std::int64_t>(sp, 0, n_bar_);
    ep = std::clamp<std::int64_t>(ep, sp, n_bar_);
    const std::uint64_t key =
        static_cast<std::uint64_t>(sp) * (static_cast<std::uint64_t>(n_bar_) + 2) +
        static_cast<std::uint64_t>(ep);
    if (!seen_.insert(key).second) return;
    if (stats_ != nullptr) ++stats_->candidates_evaluated;
    edges_->clamped_at_zero += low ? 1 : 0;
    edges_->clamped_at_n_bar += high ? 1 : 0;
    edges_->empty += ep == sp ? 1 : 0;
    const bool length_gap = std::abs(block_len_ - (ep - sp)) > cap;
    edges_->cap_below_length_gap += length_gap ? 1 : 0;

    const auto by_q = [](const seq::MatchPoint& m, std::int64_t v) { return m.q < v; };
    const auto lo = std::lower_bound(by_q_.begin(), by_q_.end(), sp, by_q);
    const auto hi = std::lower_bound(by_q_.begin(), by_q_.end(), ep, by_q);
    std::vector<seq::MatchPoint> window;
    for (auto it = lo; it != hi; ++it) {
      const std::int64_t q_local = it->q - sp;
      if (std::abs(q_local - it->p) <= cap) window.push_back(seq::MatchPoint{it->p, q_local});
    }
    edges_->out_of_band += window.size() < static_cast<std::size_t>(hi - lo) ? 1 : 0;
    work_ += static_cast<std::uint64_t>(hi - lo) + 1;
    std::sort(window.begin(), window.end(),
              [](const seq::MatchPoint& a, const seq::MatchPoint& b) { return a.p < b.p; });

    const auto d =
        seq::bounded_ulam_from_match_points(window, block_len_, ep - sp, cap, &work_);
    if (!d.has_value()) {
      if (stats_ != nullptr) ++stats_->candidates_pruned;
      edges_->pruned_in_band += length_gap ? 0 : 1;
      return;
    }
    out.push_back(Tuple{block_begin_, block_begin_ + block_len_, sp, ep, *d});
  }

 private:
  std::int64_t block_begin_;
  std::int64_t block_len_;
  std::int64_t n_bar_;
  CandidateStats* stats_;
  EdgeCounts* edges_;
  std::vector<seq::MatchPoint> pts_;
  std::vector<seq::MatchPoint> by_q_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t work_ = 0;
};

std::vector<Tuple> point_slice_candidates(std::int64_t block_begin,
                                          const std::vector<std::int64_t>& positions,
                                          const CandidateParams& params, Pcg32& rng,
                                          CandidateStats* stats, EdgeCounts* edges) {
  std::vector<Tuple> out;
  const auto b_len = static_cast<std::int64_t>(positions.size());
  if (b_len == 0) return out;
  const double eps = params.eps_prime;
  PointSliceEvaluator eval(block_begin, positions, params.n_bar, stats, edges);
  std::uint64_t lulam_work = 0;
  const auto lul =
      seq::local_ulam_from_match_points(eval.points(), b_len, params.n_bar, &lulam_work);
  const std::int64_t d_star = lul.distance;
  if (!lul.window.empty() || d_star == 0) {
    eval.evaluate(lul.window.begin, lul.window.end, std::max<std::int64_t>(d_star, 1), out);
  }
  const std::int64_t u_max = std::min(std::max(params.n, params.n_bar), 2 * b_len);
  for (const std::int64_t u : geometric_grid(u_max, eps)) {
    if (u == 0) continue;
    const auto u_hat =
        static_cast<std::int64_t>(std::ceil((1.0 + eps) * static_cast<double>(u)));
    if (u_hat < d_star) continue;
    const std::int64_t gap =
        std::max<std::int64_t>(static_cast<std::int64_t>(eps * static_cast<double>(u)), 1);
    const std::int64_t cap = 4 * u_hat + 2;
    if (u < ceil_div(b_len, 2)) {
      const std::int64_t gamma = lul.window.begin;
      const std::int64_t kappa = lul.window.end;
      for (std::int64_t sp = gamma - 2 * u_hat; sp <= gamma + 2 * u_hat; sp += gap) {
        for (std::int64_t ep = kappa - 2 * u_hat; ep <= kappa + 2 * u_hat; ep += gap) {
          if (ep < sp) continue;
          eval.evaluate(sp, ep, cap, out);
        }
      }
    } else {
      const double theta = std::min(
          1.0, params.theta_constant *
                   std::log(static_cast<double>(std::max<std::int64_t>(params.n, 3))) /
                   (eps * static_cast<double>(b_len)));
      std::vector<std::int64_t> anchor_diagonals;
      for (const seq::MatchPoint& m : eval.points()) {
        if (!rng.bernoulli(theta)) continue;
        if (stats != nullptr) ++stats->anchors_sampled;
        anchor_diagonals.push_back(m.q - m.p);
      }
      std::sort(anchor_diagonals.begin(), anchor_diagonals.end());
      anchor_diagonals.erase(std::unique(anchor_diagonals.begin(), anchor_diagonals.end()),
                             anchor_diagonals.end());
      if (stats != nullptr) stats->anchors_distinct += anchor_diagonals.size();
      for (const std::int64_t diag : anchor_diagonals) {
        for (std::int64_t sp = diag - u_hat; sp <= diag + u_hat; sp += gap) {
          for (std::int64_t ep = std::max(diag + b_len - u_hat, sp); ep <= diag + b_len + u_hat;
               ep += gap) {
            eval.evaluate(sp, ep, cap, out);
          }
        }
      }
    }
  }
  if (stats != nullptr) stats->work += eval.work() + lulam_work;
  return out;
}

/// Runs one block through build_block_candidates and through the oracle on
/// the same fixed RNG stream; requires equal tuples and stats.
void expect_matches_oracle(std::int64_t block_begin, const std::vector<std::int64_t>& positions,
                           const CandidateParams& params, std::uint64_t seed,
                           EdgeCounts& edges) {
  SCOPED_TRACE("block_begin=" + std::to_string(block_begin) +
               " len=" + std::to_string(positions.size()) + " seed=" + std::to_string(seed));
  CandidateStats got_stats;
  CandidateStats want_stats;
  Pcg32 got_rng = derive_stream(seed, 0xD1FF);
  Pcg32 want_rng = derive_stream(seed, 0xD1FF);
  const auto got = build_block_candidates(block_begin, positions, params, got_rng, &got_stats);
  const auto want =
      point_slice_candidates(block_begin, positions, params, want_rng, &want_stats, &edges);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i])
        << "tuple " << i << ": got [" << got[i].window_begin << "," << got[i].window_end
        << ") d=" << got[i].distance << ", want [" << want[i].window_begin << ","
        << want[i].window_end << ") d=" << want[i].distance;
  }
  EXPECT_EQ(got_stats.candidates_evaluated, want_stats.candidates_evaluated);
  EXPECT_EQ(got_stats.candidates_pruned, want_stats.candidates_pruned);
  EXPECT_EQ(got_stats.anchors_sampled, want_stats.anchors_sampled);
  EXPECT_EQ(got_stats.anchors_distinct, want_stats.anchors_distinct);
  EXPECT_EQ(got_stats.work, want_stats.work);
}

CandidateParams params_for(std::int64_t n, std::int64_t n_bar, double eps_prime,
                           double theta_constant) {
  CandidateParams params;
  params.eps_prime = eps_prime;
  params.theta_constant = theta_constant;
  params.n = n;
  params.n_bar = n_bar;
  return params;
}

TEST(UlamCandidates, RunClippingMatchesPointSliceOracle) {
  EdgeCounts edges;
  const std::int64_t n = 240;
  const auto s = core::random_permutation(n, 41);
  // From no edit to a full shuffle (t an independent permutation: almost
  // every run is a single point).  Substitutions bring symbols absent from
  // s, hence -1 positions; insertions and deletions make n_bar != n.
  // Moves (one symbol taken out and put back up to 40 places away) and
  // shuffled chunks put runs of one block on far-apart diagonals, so the
  // band drops some of a window's runs and keeps others.
  const auto moved = [&](std::int64_t moves, std::uint64_t stream) {
    SymString out(s.begin(), s.end());
    Pcg32 rng = derive_stream(stream, 0x30FE);
    for (std::int64_t i = 0; i < moves; ++i) {
      const auto from = static_cast<std::int64_t>(rng.below(static_cast<std::uint32_t>(n)));
      const auto to = std::clamp<std::int64_t>(from + rng.uniform(-40, 40), 0, n - 1);
      const Symbol v = out[static_cast<std::size_t>(from)];
      out.erase(out.begin() + from);
      out.insert(out.begin() + to, v);
    }
    return out;
  };
  std::vector<SymString> texts;
  for (const std::int64_t k : {0, 1, 3, 10, 30, 100, 240}) {
    texts.push_back(core::plant_edits(s, k, 500 + static_cast<std::uint64_t>(k), true).text);
  }
  texts.push_back(core::random_permutation(n, 42));
  texts.push_back(moved(4, 46));
  texts.push_back(moved(20, 47));
  texts.push_back(core::block_shuffle(s, 6, 44));
  texts.push_back(core::block_shuffle(s, 24, 45));
  std::uint64_t seed = 0;
  for (const SymString& t : texts) {
    const auto n_bar = static_cast<std::int64_t>(t.size());
    for (const std::int64_t bsize : {1, 2, 7, 40}) {
      for (const auto& [eps_prime, theta_constant] :
           {std::pair{0.25, 8.0}, std::pair{0.5, 0.25}}) {
        const auto params = params_for(n, n_bar, eps_prime, theta_constant);
        for (const Interval& block : edit_mpc::make_blocks(n, bsize)) {
          expect_matches_oracle(block.begin, positions_of(subview(s, block), t), params,
                                ++seed, edges);
        }
      }
    }
  }
  // Blocks with -1 positions only, and interleaved with matches.
  const auto t = core::random_permutation(n, 43);
  const auto params = params_for(n, n, 0.25, 8.0);
  for (const std::int64_t len : {1, 2, 5, 33}) {
    expect_matches_oracle(0, std::vector<std::int64_t>(static_cast<std::size_t>(len), -1),
                          params, ++seed, edges);
    auto positions = positions_of(subview(t, {100, 100 + len}), t);
    for (std::size_t p = 1; p < positions.size(); p += 2) positions[p] = -1;
    expect_matches_oracle(100, positions, params, ++seed, edges);
  }

  EXPECT_GT(edges.clamped_at_zero, 0u);
  EXPECT_GT(edges.clamped_at_n_bar, 0u);
  EXPECT_GT(edges.empty, 0u);
  EXPECT_GT(edges.cap_below_length_gap, 0u);
  EXPECT_GT(edges.out_of_band, 0u);
  EXPECT_GT(edges.pruned_in_band, 0u);
}

}  // namespace
}  // namespace mpcsd::ulam_mpc
