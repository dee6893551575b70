#!/usr/bin/env bash
# Lint gate for the HULK-V sources (a failing CI step, not advisory).
#
# Preferred mode: clang-tidy with the repo's .clang-tidy profile against
# the compile database of an existing build tree. When clang-tidy is not
# installed (this container ships only gcc), falls back to a strict
# g++ -fsyntax-only pass with an extended warning set, so the script is
# always usable in CI. Both modes cover every C++ source in the repo —
# src, tests (with the gtest include path when resolvable), tools and
# bench — and exit non-zero on the first finding.
#
# Usage: scripts/lint.sh [paths...]   (default: src tests tools bench)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
paths=("$@")
if [ ${#paths[@]} -eq 0 ]; then
  paths=("$repo_root/src" "$repo_root/tests" "$repo_root/tools"
         "$repo_root/bench")
fi

collect_sources() {
  find "${paths[@]}" -name '*.cc' -o -name '*.cpp' 2> /dev/null | sort
}

# gtest headers for the test sources: prefer the package the build
# itself resolved (GTest_DIR in the CMake cache), then the usual spots.
gtest_include=""
for candidate in \
    "$(sed -n 's/^GTest_DIR:PATH=\(.*\)\/lib\/cmake\/GTest$/\1\/include/p' \
        "$build_dir/CMakeCache.txt" 2> /dev/null)" \
    /usr/include /usr/local/include; do
  if [ -n "$candidate" ] && [ -f "$candidate/gtest/gtest.h" ]; then
    gtest_include="$candidate"
    break
  fi
done

# Threaded handler-table invariants (DESIGN.md §15) — structural
# properties of the execution-tier code that the compiler can't state:
#  * every core resolver keeps its explicit null-handler default, so an
#    op without a handler retires through exec_slow() instead of
#    resolving to garbage;
#  * each core's single dispatch loop (both tiers are instantiations of
#    it) has exactly one typed indirect-call site (the reinterpret_cast
#    back from AnyFn) — handlers are never invoked from anywhere else;
#  * the 32-byte ThreadedInstr size assert stays in place (two entries
#    per cache line is part of the tier's perf contract);
#  * an op the shared RV base covers (src/isa/rv_ops.hpp) has exactly
#    one handler body: the ops resolve_base() maps, plus those a core
#    maps to a Base handler (&B::) for its own latency, never resolve
#    to a core's own handler (&H::), and no core re-defines a handler
#    under a Base name.
echo "== threaded handler-table checks =="
tier_status=0
for f in "$repo_root/src/host/cva6.cpp" "$repo_root/src/cluster/pmca_core.cpp"; do
  if ! grep -q 'HandlerInfo{nullptr' "$f"; then
    echo "lint: $f: resolver lost its null-handler (exec_slow) default" >&2
    tier_status=1
  fi
done
for pair in "src/host/cva6.cpp:HostFn" "src/cluster/pmca_core.cpp:PmcaFn"; do
  f="$repo_root/${pair%%:*}"
  fn="${pair##*:}"
  sites="$(grep -c "reinterpret_cast<$fn>" "$f" || true)"
  if [ "$sites" -ne 1 ]; then
    echo "lint: $f: expected exactly 1 reinterpret_cast<$fn> dispatch" \
         "site, found $sites" >&2
    tier_status=1
  fi
done
if ! grep -q 'static_assert(sizeof(ThreadedInstr) == 32' \
    "$repo_root/src/isa/threaded.hpp"; then
  echo "lint: src/isa/threaded.hpp: missing ThreadedInstr 32-byte" \
       "size assert" >&2
  tier_status=1
fi
rv_ops="$repo_root/src/isa/rv_ops.hpp"
core_srcs=("$repo_root/src/host/cva6.cpp"
           "$repo_root/src/cluster/pmca_core.cpp")
case_op='s/^ *case Op::\(k[A-Za-z0-9]*\): return [a-z]*'
shared_ops="$(
  { sed -n "$case_op<Core>(&B::.*/\\1/p" "$rv_ops"
    sed -n "$case_op(&B::.*/\\1/p" "${core_srcs[@]}"; } | sort -u)"
shared_names="$(
  sed -n 's/^  static void \([a-z_0-9]*\)(Core&.*/\1/p' "$rv_ops" | sort -u)"
if [ "$(echo "$shared_ops" | wc -w)" -lt 47 ] ||
    [ "$(echo "$shared_names" | wc -w)" -lt 47 ]; then
  echo "lint: $rv_ops: could not read the shared op/handler lists" >&2
  tier_status=1
fi
for f in "${core_srcs[@]}"; do
  for op in $shared_ops; do
    if grep -q "case Op::$op: return [a-z]*(&H::" "$f"; then
      echo "lint: $f: $op has a shared handler in isa/rv_ops.hpp but" \
           "resolves to a per-core one" >&2
      tier_status=1
    fi
  done
  for name in $shared_names; do
    if grep -q "^  static void $name(" "$f"; then
      echo "lint: $f: defines handler '$name', which isa/rv_ops.hpp" \
           "already implements" >&2
      tier_status=1
    fi
  done
done
if [ "$tier_status" -ne 0 ]; then
  echo "lint: FAILED (threaded handler-table checks)"
  exit 1
fi
echo "threaded handler-table checks: OK"

# Instrumentation front-end invariants (DESIGN.md §9) over the program
# sources (src, bench, examples, tools):
#  * events are recorded only through trace::Track — outside src/trace
#    nothing resolves a track id by hand (`.resolve(`) or emits straight
#    into the sink (`trace::sink().instant|complete|counter(`, or the
#    same calls on a `sink` alias of it);
#  * one Chrome-trace writer — the trace_event phase key "ph": is
#    spelled only in src/trace/chrome_trace.cpp. perfbench/ is not
#    scanned: perfbench/harness.cpp (Tracer::write_chrome_trace) still
#    writes its own trace and is the one known exception.
echo "== instrumentation front-end checks =="
instr_status=0
program_srcs=("$repo_root/src" "$repo_root/bench" "$repo_root/examples"
              "$repo_root/tools")
emit_pattern='\.resolve\(|trace::sink\(\)\.(instant|complete|counter)\(|\bsink\.(instant|complete|counter)\('
if hits="$(grep -rnE "$emit_pattern" "${program_srcs[@]}" \
    --include='*.cpp' --include='*.hpp' --include='*.cc' |
    grep -v "^$repo_root/src/trace/")"; then
  echo "$hits" >&2
  echo "lint: trace events outside src/trace must go through trace::Track" >&2
  instr_status=1
fi
if hits="$(grep -rn '\\"ph\\":' "${program_srcs[@]}" \
    --include='*.cpp' --include='*.hpp' --include='*.cc' |
    grep -v "^$repo_root/src/trace/chrome_trace.cpp:")"; then
  echo "$hits" >&2
  echo "lint: Chrome trace JSON is written only by" \
       "src/trace/chrome_trace.cpp (trace::ChromeTraceWriter)" >&2
  instr_status=1
fi
if [ "$instr_status" -ne 0 ]; then
  echo "lint: FAILED (instrumentation front-end checks)"
  exit 1
fi
echo "instrumentation front-end checks: OK"

if command -v clang-tidy > /dev/null 2>&1; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "error: $build_dir/compile_commands.json not found." >&2
    echo "Configure first: cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 1
  fi
  echo "== clang-tidy ($(clang-tidy --version | head -n1)) =="
  collect_sources | xargs clang-tidy -p "$build_dir" --quiet
else
  echo "== clang-tidy not found: falling back to g++ -fsyntax-only =="
  gxx="${CXX:-g++}"
  status=0
  skipped=0
  while IFS= read -r src; do
    extra_flags=()
    case "$src" in
      *_test.cc)
        if [ -z "$gtest_include" ]; then
          # Only the gtest-dependent sources may be skipped, and only
          # when the headers are genuinely unresolvable.
          skipped=$((skipped + 1))
          continue
        fi
        extra_flags+=(-I"$gtest_include" -DHULKV_TEST_DATA_DIR='""'
                      -DHULKV_BENCH_DIR='""' -DHULKV_EXAMPLES_DIR='""')
        ;;
    esac
    if ! "$gxx" -std=c++20 -fsyntax-only \
        -I"$repo_root/src" "${extra_flags[@]}" \
        -Wall -Wextra -Wshadow -Wconversion-null \
        -Wnon-virtual-dtor -Woverloaded-virtual \
        -Wduplicated-cond -Wduplicated-branches -Wlogical-op \
        -Wformat=2 \
        -Werror "$src" 2>&1; then
      status=1
    fi
  done < <(collect_sources)
  if [ "$skipped" -gt 0 ]; then
    echo "lint: skipped $skipped test source(s): gtest headers not found"
  fi
  if [ "$status" -ne 0 ]; then
    echo "lint: FAILED"
    exit "$status"
  fi
  echo "lint: OK"
fi
