#!/bin/sh
# Gate against policy-seam erosion: no production code outside the
# family registry may branch on policy identity. A `switch` on a Policy
# value, a `case` arm or an ==/!= comparison naming a policy constant,
# or an IsWAA() call belongs in internal/sched (the registry and its
# allocators) or a per-family file; everywhere else must go through
# sched.FamilyOf capabilities or the core estimator registry. Test files
# are exempt (they enumerate policies to pin per-family behavior).
set -eu
cd "$(dirname "$0")/.."

fail=0

# Production .go files outside internal/sched (and outside tests).
files=$(find cmd internal -name '*.go' ! -name '*_test.go' ! -path 'internal/sched/*')

policies='sched\.(RRA|WAAC|WAAM|Disagg)\b'
for pattern in '\.IsWAA\(\)' 'switch .*\.Policy' "case .*$policies" \
	"(==|!=) *$policies" "$policies *(==|!=)"; do
	hits=$(grep -nE "$pattern" $files 2>/dev/null || true)
	if [ -n "$hits" ]; then
		echo "policy gate: found policy-identity branches outside the registry:" >&2
		echo "$hits" >&2
		echo "(route through sched.FamilyOf caps or the core estimator registry)" >&2
		fail=1
	fi
done

exit $fail
