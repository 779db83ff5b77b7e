#!/usr/bin/env bash
# Invariant lint for mpcsd.  Three layers:
#
#   1. grep-based repository invariants (zero dependencies) for the rules
#      the conformance analyzer has no equivalent of: no rand()/srand(),
#      no raw new/delete, no nondeterministic seeds;
#   2. mpcsd_verify (tools/mpcsd_verify), the token-level conformance
#      analyzer, over src/ fuzz/ examples/: machine-body purity,
#      determinism, and the boundary-confinement rules.  Mandatory: when
#      the binary is missing the lint fails and names the build command;
#   3. clang-tidy over src/ with the committed .clang-tidy profile (run
#      only when a clang-tidy binary exists; CI installs one, minimal
#      containers may not have it).
#
# Zero suppressions: a rule that needs an exception is a wrong rule.
# Usage: scripts/lint.sh [build_dir]   (build dir must hold the built
#        analyzer, and compile_commands.json for the clang-tidy layer;
#        default: build)
set -uo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
status=0

fail() {
  echo "lint: FAIL: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  status=1
}

# Every rule scans the library and harness sources.  Tests deliberately
# violate some invariants (e.g. the auditor negative tests mutate inbox
# views), so they are out of scope.
sources=(src fuzz examples)

# --- Rule 1: no C rand()/srand() — all randomness must flow through the
# seeded Pcg32 streams, or machine results depend on global hidden state.
hits=$(grep -rnE '\b(s?rand)\s*\(' "${sources[@]}" --include='*.hpp' --include='*.cpp' || true)
[ -n "$hits" ] && fail "rand()/srand() forbidden; use common/rng.hpp streams" "$hits"

# --- Rule 2: no raw new/delete — ownership goes through containers and
# smart pointers, so round arenas cannot leak across rounds.  Line comments
# are stripped before matching (prose talks about "deleting" edits).
pat='(^|[^_[:alnum:]])(new|delete(\[\])?)[[:space:]]+[A-Za-z_:<(]'
hits=$(grep -rnE "$pat" "${sources[@]}" --include='*.hpp' --include='*.cpp' \
  | sed 's#//.*##' | grep -E "$pat" || true)
[ -n "$hits" ] && fail "raw new/delete forbidden; use containers or make_unique" "$hits"

# --- Rule 5: no wall-clock or nondeterministic seeds in library code —
# time only through common/timer.hpp Stopwatch, which metering excludes.
hits=$(grep -rnE 'std::random_device|time\(NULL\)|time\(nullptr\)' \
  src --include='*.hpp' --include='*.cpp' || true)
[ -n "$hits" ] && fail "nondeterministic seed source in src/; seeds must be explicit" "$hits"

if [ $status -ne 0 ]; then
  echo "lint: invariant rules failed" >&2
  exit 1
fi
echo "lint: invariant rules OK"

# --- Layer 2: mpcsd_verify conformance analyzer (mandatory).
verify_bin="$build_dir/tools/mpcsd_verify/mpcsd_verify"
if [ ! -x "$verify_bin" ]; then
  echo "lint: $verify_bin not found; build it first:" >&2
  echo "    cmake -B $build_dir -S . && cmake --build $build_dir --target mpcsd_verify" >&2
  exit 1
fi
echo "lint: mpcsd_verify over src/ fuzz/ examples/"
"$verify_bin" --quiet src fuzz examples || {
  echo "lint: mpcsd_verify failed (re-run without --quiet for details):" >&2
  "$verify_bin" src fuzz examples >&2 || true
  exit 1
}
echo "lint: mpcsd_verify OK"

# --- Layer 3: clang-tidy (optional tool, mandatory pass when present).
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "lint: no $build_dir/compile_commands.json; configure first (cmake --preset default)" >&2
    exit 1
  fi
  mapfile -t files < <(find src fuzz -name '*.cpp' | sort)
  echo "lint: clang-tidy over ${#files[@]} files"
  clang-tidy -p "$build_dir" --quiet "${files[@]}" || {
    echo "lint: clang-tidy failed" >&2
    exit 1
  }
  echo "lint: clang-tidy OK"
else
  echo "lint: clang-tidy not found; skipped (grep invariants still enforced)"
fi
