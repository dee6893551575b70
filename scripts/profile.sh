#!/usr/bin/env bash
# Run one figure bench under the cycle-attribution profiler and leave
# flamegraph-ready artifacts behind (DESIGN.md section 12).
#
# Usage: scripts/profile.sh <bench> [out-prefix] [bench args...]
#   <bench>       a bench binary name, e.g. fig6_speedup, fig8_llc_effect
#   [out-prefix]  output path prefix (default: ./profile_<bench>)
#
# Writes <out-prefix>.folded (collapsed stacks, one weighted line per
# (core, symbol, block, reason)) and <out-prefix>.annotated.txt
# (perf-annotate-style per-instruction disassembly), and prints the
# per-reason stall tables on stdout.
#
# View the folded stacks with either of the standard tools:
#   flamegraph.pl <out-prefix>.folded > flame.svg
#   speedscope <out-prefix>.folded      (or drag into speedscope.app)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"

if [ "$#" -lt 1 ]; then
  echo "usage: scripts/profile.sh <bench> [out-prefix] [bench args...]" >&2
  echo "benches:" >&2
  ls "$build_dir/bench" 2>/dev/null | grep -v '\.' | sed 's/^/  /' >&2
  exit 2
fi

bench="$1"
shift
out="${1:-profile_$bench}"
[ "$#" -ge 1 ] && shift

if [ ! -x "$build_dir/bench/$bench" ]; then
  echo "error: $build_dir/bench/$bench not found. Build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Absolutize the prefix so the artifact paths the bench prints are
# valid regardless of the caller's working directory.
out_dir="$(cd "$(dirname "$out")" && pwd)"
out="$out_dir/$(basename "$out")"

"$build_dir/bench/$bench" --profile="$out" "$@"

echo
echo "profile.sh: view with"
echo "  flamegraph.pl $out.folded > flame.svg"
echo "  speedscope $out.folded"
