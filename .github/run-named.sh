#!/usr/bin/env bash
# cargo test with a name filter, failing when the filter selects no
# test: a step that names a test which was since renamed or deleted
# would otherwise pass on "0 passed".
#
#   .github/run-named.sh -p mrhs-solvers solve_bits_pinned
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test -q "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "run-named: no test ran for: cargo test -q $*" >&2
    exit 1
fi
