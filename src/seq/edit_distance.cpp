#include "seq/edit_distance.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/contracts.hpp"

namespace mpcsd::seq {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

std::int64_t edit_distance(SymView a, SymView b, std::uint64_t* work) {
  // Keep the shorter string on the inner dimension to minimise memory.
  if (a.size() < b.size()) std::swap(a, b);
  const auto n = static_cast<std::int64_t>(a.size());
  const auto m = static_cast<std::int64_t>(b.size());
  if (m == 0) return n;

  std::vector<std::int64_t> prev(static_cast<std::size_t>(m) + 1);
  std::vector<std::int64_t> cur(static_cast<std::size_t>(m) + 1);
  for (std::int64_t j = 0; j <= m; ++j) prev[static_cast<std::size_t>(j)] = j;

  for (std::int64_t i = 1; i <= n; ++i) {
    cur[0] = i;
    const Symbol ai = a[static_cast<std::size_t>(i - 1)];
    for (std::int64_t j = 1; j <= m; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const std::int64_t sub = prev[ju - 1] + (ai == b[ju - 1] ? 0 : 1);
      const std::int64_t del = prev[ju] + 1;
      const std::int64_t ins = cur[ju - 1] + 1;
      cur[ju] = std::min({sub, del, ins});
    }
    std::swap(prev, cur);
  }
  if (work != nullptr) *work += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  return prev[static_cast<std::size_t>(m)];
}

std::optional<std::int64_t> edit_distance_banded(SymView a, SymView b,
                                                 std::int64_t k,
                                                 std::uint64_t* work) {
  MPCSD_EXPECTS(k >= 0);
  const auto n = static_cast<std::int64_t>(a.size());
  const auto m = static_cast<std::int64_t>(b.size());
  if (std::abs(n - m) > k) return std::nullopt;
  if (n == 0) return m <= k ? std::optional<std::int64_t>(m) : std::nullopt;
  if (m == 0) return n <= k ? std::optional<std::int64_t>(n) : std::nullopt;

  // Any cell (i, j) reachable with cost <= k satisfies |i - j| <= k, so we
  // only materialise the band j in [i-k, i+k].  Rows are stored densely with
  // an index offset; cells outside the band act as +infinity.
  const std::int64_t width = 2 * k + 1;
  std::vector<std::int64_t> prev(static_cast<std::size_t>(width), kInf);
  std::vector<std::int64_t> cur(static_cast<std::size_t>(width), kInf);
  std::uint64_t cells = 0;

  // Row 0: d[0][j] = j for j in [0, k].
  for (std::int64_t j = 0; j <= std::min(k, m); ++j) {
    prev[static_cast<std::size_t>(j - 0 + k)] = j;  // offset: column j maps to j - i + k
  }

  for (std::int64_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    const std::int64_t jlo = std::max<std::int64_t>(0, i - k);
    const std::int64_t jhi = std::min(m, i + k);
    const Symbol ai = a[static_cast<std::size_t>(i - 1)];
    std::int64_t row_min = kInf;
    for (std::int64_t j = jlo; j <= jhi; ++j) {
      const std::int64_t off = j - i + k;  // position of column j in row i
      std::int64_t best = kInf;
      if (j == 0) {
        best = i;
      } else {
        // diag (i-1, j-1): offset in prev row = (j-1) - (i-1) + k = off
        const std::int64_t diag = prev[static_cast<std::size_t>(off)];
        if (diag < kInf) {
          best = diag + (ai == b[static_cast<std::size_t>(j - 1)] ? 0 : 1);
        }
        // up (i-1, j): offset in prev row = j - (i-1) + k = off + 1
        if (off + 1 < width) {
          const std::int64_t up = prev[static_cast<std::size_t>(off + 1)];
          if (up < kInf) best = std::min(best, up + 1);
        }
        // left (i, j-1): offset in cur row = off - 1
        if (off - 1 >= 0) {
          const std::int64_t left = cur[static_cast<std::size_t>(off - 1)];
          if (left < kInf) best = std::min(best, left + 1);
        }
      }
      cur[static_cast<std::size_t>(off)] = best;
      if (best < row_min) row_min = best;
      ++cells;
    }
    std::swap(prev, cur);
    // Row minima are non-decreasing (every cell of the next row derives
    // from this row with +0/+1 costs), so once the whole band exceeds k
    // the final value must too: abort early.
    if (row_min > k) {
      if (work != nullptr) *work += cells;
      return std::nullopt;
    }
  }
  if (work != nullptr) *work += cells;

  const std::int64_t off_final = m - n + k;
  if (off_final < 0 || off_final >= width) return std::nullopt;
  const std::int64_t d = prev[static_cast<std::size_t>(off_final)];
  if (d > k) return std::nullopt;
  return d;
}

std::optional<std::int64_t> edit_distance_bounded(SymView a, SymView b,
                                                  std::int64_t limit,
                                                  std::uint64_t* work) {
  MPCSD_EXPECTS(limit >= 0);
  std::int64_t k = 1;
  for (;;) {
    const std::int64_t cap = std::min(k, limit);
    if (auto d = edit_distance_banded(a, b, cap, work)) return d;
    if (cap == limit) return std::nullopt;
    k *= 2;
  }
}

}  // namespace mpcsd::seq
