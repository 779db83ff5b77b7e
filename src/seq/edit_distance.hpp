// Exact edit-distance algorithms (the classic sequential substrate).
//
//  * `edit_distance`          — two-row DP, O(|a||b|) time, O(min) space.
//  * `edit_distance_banded`   — Ukkonen band of half-width k, O((|a|+|b|)k);
//                               returns nullopt when the distance exceeds k.
//  * `edit_distance_bounded`  — doubling driver over the band: exact distance
//                               in O((|a|+|b|)·d) where d is the answer.
// All three agree exactly (pinned by property tests).  The optional `work`
// meter counts DP cells touched; the MPC simulator charges machine work with
// it so that the Table 1 "total running time" columns are measurable.
#pragma once

#include <cstdint>
#include <optional>

#include "seq/types.hpp"

namespace mpcsd::seq {

/// Classic Wagner–Fischer DP (unit costs, substitutions allowed).
std::int64_t edit_distance(SymView a, SymView b, std::uint64_t* work = nullptr);

/// Exact distance if it is <= k, std::nullopt otherwise.  O((|a|+|b|)·k).
std::optional<std::int64_t> edit_distance_banded(SymView a, SymView b,
                                                 std::int64_t k,
                                                 std::uint64_t* work = nullptr);

/// Exact distance with band doubling; `limit` (if set) caps the search and
/// yields nullopt for distances beyond it.
std::optional<std::int64_t> edit_distance_bounded(SymView a, SymView b,
                                                  std::int64_t limit,
                                                  std::uint64_t* work = nullptr);

}  // namespace mpcsd::seq
