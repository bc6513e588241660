#!/usr/bin/env bash
# Runs one GoogleTest binary under a --gtest_filter, and fails when any
# positive pattern of the filter selects no test.
#
#   .github/run_gtest_filter.sh '<filter>' <test command...>
#
# The test command may start with a launcher (setarch ... -R ./test).
# GoogleTest 1.12 has no --gtest_fail_if_no_test_selected: a filter that
# matches nothing prints "[  PASSED  ] 0 tests." and exits 0, so a case
# renamed or deleted out from under a gate would drop out of it unseen.
# Each ':'-separated pattern (before any '-' negative part) is therefore
# listed on its own first and must select at least one test; then the
# whole filter runs once, and its exit status is this script's.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 '<gtest filter>' <test command...>" >&2
  exit 2
fi
filter="$1"
shift

IFS=':' read -r -a patterns <<< "${filter%%-*}"
for pattern in "${patterns[@]}"; do
  [ -n "$pattern" ] || continue
  selected="$("$@" --gtest_list_tests --gtest_filter="$pattern" |
    grep -c '^  ' || true)"
  if [ "$selected" -eq 0 ]; then
    echo "gtest filter pattern '$pattern' selects no test in: $*" >&2
    exit 1
  fi
done

exec "$@" --gtest_filter="$filter"
