#include "seq/edit_distance_fast.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/contracts.hpp"
#include "seq/edit_distance.hpp"
#include "seq/myers.hpp"

namespace mpcsd::seq {

/// Piecewise linear in i, so the sum has a closed form.
std::uint64_t band_cells(std::int64_t rows, std::int64_t cols, std::int64_t k) {
  if (rows <= 0 || cols < 0) return 0;
  const std::int64_t c1 = std::clamp<std::int64_t>(cols - k, 0, rows);
  const std::int64_t sum_hi = c1 * (c1 + 1) / 2 + k * c1 + (rows - c1) * cols;
  const std::int64_t c2 = std::clamp<std::int64_t>(rows - k, 0, rows);
  const std::int64_t sum_lo = c2 * (c2 + 1) / 2;
  return static_cast<std::uint64_t>(sum_hi - sum_lo + rows);
}

namespace {

std::int64_t cell_product(SymView a, SymView b) {
  return static_cast<std::int64_t>(a.size()) * static_cast<std::int64_t>(b.size());
}

/// Myers pays ceil(pattern/64) words per text column no matter how narrow
/// the band; it wins only when the band itself is at least ~kCellsPerWord
/// cells per pattern word.
bool myers_band_profitable(std::size_t pattern_len, std::int64_t k) {
  const auto blocks = static_cast<std::int64_t>((pattern_len + 63) / 64);
  return 2 * k + 1 >= kCellsPerWord * blocks;
}

/// Which band a successful bounded run is charged as.
enum class BandCharge {
  kCap,           ///< the full half-width-k band it ran at
  kLadderFinish,  ///< the band the scalar doubling ladder would have finished
                  ///< at: half-width min(k, max(2d, 1))
};

/// Runs the bounded bit-parallel kernel at cap `k` with the shorter string
/// as the pattern and charges `work` the modelled band cells: the `charge`
/// band over every text row on success, the capped band over the processed
/// columns on early abort.
std::optional<std::int64_t> myers_bounded_charged(SymView a, SymView b,
                                                  std::int64_t k,
                                                  BandCharge charge,
                                                  std::uint64_t* work) {
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  std::uint64_t words = 0;
  const auto d = edit_distance_myers_bounded(a, b, k, &words);
  if (work != nullptr) {
    const auto blocks = static_cast<std::uint64_t>((a.size() + 63) / 64);
    const auto cols_done =
        blocks == 0 ? 0 : static_cast<std::int64_t>(words / blocks);
    const auto rows = d.has_value() ? static_cast<std::int64_t>(b.size())
                                    : cols_done;
    const auto charge_k =
        d.has_value() && charge == BandCharge::kLadderFinish
            ? std::min(k, std::max<std::int64_t>(2 * *d, 1))
            : k;
    *work += band_cells(rows, static_cast<std::int64_t>(a.size()), charge_k);
  }
  return d;
}

}  // namespace

std::optional<std::int64_t> myers_bounded_resolve(SymView a, SymView b,
                                                  std::int64_t limit,
                                                  std::uint64_t* work) {
  return myers_bounded_charged(a, b, limit, BandCharge::kLadderFinish, work);
}

EditKernel edit_distance_fast_kernel(SymView a, SymView b) {
  if (a.empty() || b.empty()) return EditKernel::kScalar;
  if (cell_product(a, b) <= kTinyCells) return EditKernel::kScalar;
  return EditKernel::kMyers;
}

EditKernel edit_distance_banded_fast_kernel(SymView a, SymView b, std::int64_t k) {
  if (a.empty() || b.empty() || cell_product(a, b) <= kTinyCells) {
    return EditKernel::kScalarBanded;
  }
  return myers_band_profitable(std::min(a.size(), b.size()), k)
             ? EditKernel::kMyersBounded
             : EditKernel::kScalarBanded;
}

std::int64_t edit_distance_fast(SymView a, SymView b, std::uint64_t* work) {
  if (edit_distance_fast_kernel(a, b) == EditKernel::kScalar) {
    return edit_distance(a, b, work);
  }
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  const auto d = edit_distance_myers(a, b, nullptr);
  // Same modelled charge as the scalar row DP: every cell of the table.
  if (work != nullptr) *work += static_cast<std::uint64_t>(cell_product(a, b));
  return d;
}

std::optional<std::int64_t> edit_distance_banded_fast(SymView a, SymView b,
                                                      std::int64_t k,
                                                      std::uint64_t* work) {
  MPCSD_EXPECTS(k >= 0);
  if (edit_distance_banded_fast_kernel(a, b, k) == EditKernel::kScalarBanded) {
    return edit_distance_banded(a, b, k, work);
  }
  return myers_bounded_charged(a, b, k, BandCharge::kCap, work);
}

std::optional<std::int64_t> edit_distance_bounded_fast(SymView a, SymView b,
                                                       std::int64_t limit,
                                                       std::uint64_t* work) {
  MPCSD_EXPECTS(limit >= 0);
  const auto gap = std::abs(static_cast<std::int64_t>(a.size()) -
                            static_cast<std::int64_t>(b.size()));
  if (gap > limit) return std::nullopt;
  const std::size_t pattern_len = std::min(a.size(), b.size());
  std::int64_t k = 1;
  for (;;) {
    const std::int64_t cap = std::min(k, limit);
    if (cell_product(a, b) > kTinyCells &&
        myers_band_profitable(pattern_len, cap)) {
      // The bit-parallel cost is independent of the cap, so skip the rest
      // of the doubling ladder and resolve at the full limit in one shot.
      return myers_bounded_resolve(a, b, limit, work);
    }
    if (auto d = edit_distance_banded(a, b, cap, work)) return d;
    if (cap == limit) return std::nullopt;
    k *= 2;
  }
}

}  // namespace mpcsd::seq
