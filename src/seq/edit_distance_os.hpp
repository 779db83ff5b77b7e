// Output-sensitive exact edit distance (the sequential fast path behind
// the core::distance_batch query router).
//
// Ukkonen-style k-doubling in the spirit of Dong–Gu–Liu–Sun's
// output-sensitive formulation, run over the blocked bit-parallel Myers
// stripes instead of the scalar band: each attempt evaluates only the word
// blocks covering the band |i - j| <= k (edit_distance_myers_banded), so
// attempt k costs O(|b| * (k/w + 1)) word ops and the doubled ladder totals
// O(n + d*n/w) for answer d — w-fold cheaper than the scalar doubling
// driver, and output-sensitive where the full-width engine is not.
//
// Dispatch within the driver (all value-identical, pinned by differential
// tests and the fuzz harness):
//   * exact-equality / common prefix+suffix trim first — near-duplicate
//     pairs shrink to their differing core before any DP runs;
//   * tiny cores (<= kTinyCells DP cells) go to the scalar doubling driver
//     (mask setup would dominate);
//   * narrow bands walk the banded blocked kernel, doubling k from
//     max(1, length gap);
//   * once the band covers a constant fraction of the pattern the banded
//     walk stops paying for itself and one full-width bounded run — the
//     SIMD-dispatched kernel family with the shared pattern-mask cache
//     (myers_kernel.hpp) — resolves the remainder.
//
// Work metering stays in modelled DP cells (band area per attempt, exactly
// the unit the scalar doubling driver charges) and never depends on ISA or
// host.  It is not a function of (|a|, |b|, limit, answer) alone: the
// charge is taken on the trimmed core, so it depends on the common prefix
// and suffix, and a tiny core goes to the scalar doubling driver, whose
// failed rungs charge only the cells they touched before aborting early.
#pragma once

#include <cstdint>
#include <optional>

#include "seq/types.hpp"

namespace mpcsd::seq {

/// Exact edit distance; value-identical to `edit_distance`.  O(n + d*n/w)
/// word ops for answer d after O(n) trim.
std::int64_t edit_distance_output_sensitive(SymView a, SymView b,
                                            std::uint64_t* work = nullptr);

/// Exact distance when it is <= limit, std::nullopt otherwise (the capped
/// probe the router uses: a nullopt *proves* ed(a, b) > limit, which the
/// batch driver turns into a starting rung).  Value-identical to
/// `edit_distance_bounded`.
std::optional<std::int64_t> edit_distance_output_sensitive_bounded(
    SymView a, SymView b, std::int64_t limit, std::uint64_t* work = nullptr);

}  // namespace mpcsd::seq
