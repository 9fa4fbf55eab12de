#!/usr/bin/env bash
# Prints the module's Go line counts outside bench/ and testdata/: the
# non-test lines (the figure ROADMAP item 14 tracks) and the test lines.
#
#   bash tools/loc.sh [root]
#
# root defaults to the repository the script sits in, so the same command
# measures a parent checkout for a before/after comparison.
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"
count() {
  find . -name '*.go' "$@" -not -path './bench/*' -not -path '*/testdata/*' \
    -not -path './.bench_build/*' -not -path './.git/*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
}
echo "non-test $(count ! -name '*_test.go')"
echo "test $(count -name '*_test.go')"
