#!/bin/sh
# Run the clang static analyzer (core, deadcode, cplusplus checkers)
# over every library TU. Complements -Wthread-safety: the analyzer does
# path-sensitive lifetime/null/dead-store reasoning the warning flags
# cannot. Any report is a failure.
#
# Usage: tools/check_analyze.sh [clang++]
#   CXX env var or $1 selects the compiler; it must be clang
#   (--analyze is a clang driver flag).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cxx=${1:-${CXX:-clang++}}

if ! "$cxx" --version 2>/dev/null | grep -q clang; then
  echo "check_analyze.sh: '$cxx' is not clang; --analyze needs clang" >&2
  exit 2
fi

status=0
for tu in "$repo_root"/src/*/*.cpp; do
  # The gf kernels compile per-tier with ISA flags; mirror the build so
  # the analyzer sees the same preprocessed code it would ship.
  case "$tu" in
    */src/gf/*) set -- -mavx2 -mgfni -mavx512f -mavx512bw ;;
    *) set -- ;;
  esac
  out=$("$cxx" --analyze --analyzer-output text \
        -Xclang -analyzer-checker=core,deadcode,cplusplus \
        -std=c++20 "-I$repo_root/src" -o /dev/null "$@" "$tu" 2>&1) || {
    echo "analyze FAILED: $tu" >&2
    echo "$out" >&2
    status=1
    continue
  }
  if [ -n "$out" ]; then
    echo "analyze reports: $tu" >&2
    echo "$out" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_analyze.sh: clean"
fi
exit "$status"
