#!/usr/bin/env bash
# No export without a caller: list the exported top-level functions
# under internal/ that no non-test file outside their own package
# refers to (as pkg.Name — a grep, so methods and aliased imports are
# out of its reach). The packages in the case below are held to zero
# and fail the script; the rest is printed as the worklist of ROADMAP
# item 6b.
set -euo pipefail

cd "$(dirname "$0")/.."
mapfile -t sources < <(find . -name '*.go' ! -name '*_test.go' | sed 's|^\./||' | sort)

fail=0
for dir in $(printf '%s\n' "${sources[@]}" | grep '^internal/' | xargs -n1 dirname | sort -u); do
  mapfile -t own < <(printf '%s\n' "${sources[@]}" | grep "^$dir/[^/]*$")
  mapfile -t others < <(printf '%s\n' "${sources[@]}" | grep -v "^$dir/[^/]*$")
  pkg=$(sed -n 's/^package \([A-Za-z0-9_]*\).*/\1/p' "${own[0]}" | head -1)
  for fn in $(sed -n 's/^func \([A-Z][A-Za-z0-9_]*\)[[(].*/\1/p' "${own[@]}" | sort -u); do
    if ! grep -qE "\b$pkg\.$fn\b" "${others[@]}"; then
      case $dir in
        internal/mc | internal/karpluby | internal/logic | internal/core | internal/vm | \
          internal/ra | internal/sharpp | internal/reductions | internal/unreliable)
          echo "FAIL $dir: $fn has no non-test caller outside its package"
          fail=1
          ;;
        *) echo "     $dir: $fn" ;;
      esac
    fi
  done
done
exit $fail
