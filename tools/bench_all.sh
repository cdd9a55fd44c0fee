#!/bin/sh
# Regenerate every committed benchmark record at the repo root from one
# build tree:
#
#   BENCH_micro_codec.json  GF(2^8) kernels per ISA tier and the codec
#                           (bench_micro_codec); calibrates
#                           VnfConfig::proc_rate_Bps
#   BENCH_vnf_pps.json      batched vs per-packet VNF lane packets/sec
#                           (bench_vnf_pps); see DESIGN.md "Batched data
#                           plane"
#   BENCH_scale.json        worker scaling curve and the 10^5-receiver
#                           aggregate (bench_scale)
#   BENCH_e2e.json          whole ncfn-run invocations: perfbench's
#                           butterfly and shards_traced workloads, end to
#                           end (--trace 0) and per layer (--trace 1)
#
# Every file carries the same host stamp: host cores, the dispatched GF
# tier, build type, compiler and git sha. The google-benchmark binaries
# take it as --benchmark_context pairs; bench_scale reads cores and tier
# itself and takes the rest as --context pairs; each BENCH_e2e.json run
# keeps perfbench's own stamp, its git_sha replaced by the one above
# (perfbench records HEAD without a -dirty mark). perfbench builds its
# own tree (.bench_build) from this checkout and is only run, never
# edited. Numbers depend on the host, so run this on a quiet one
# (nothing building or testing).
#
# Usage: tools/bench_all.sh [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
# Run from the repo root so the records name their binaries by a
# relative path.
cd "$repo_root"
build_dir=${1:-build}
bench="$build_dir/bench"

for b in bench_micro_codec bench_vnf_pps bench_scale; do
  if [ ! -x "$bench/$b" ]; then
    echo "error: $bench/$b not built (cmake -B build -S . && cmake --build build -j)" >&2
    exit 1
  fi
done

cached() { sed -n "s/^$1:[A-Z]*=//p" "$build_dir/CMakeCache.txt"; }
# An empty cached build type means the top-level default.
build_type=$(cached CMAKE_BUILD_TYPE)
build_type=${build_type:-RelWithDebInfo}
# google-benchmark splits context pairs on ',' and '='; keep them out.
compiler=$("$(cached CMAKE_CXX_COMPILER)" --version | head -n 1 | tr ',=' '  ')
# HEAD, suffixed -dirty when the tree has uncommitted changes.
git_sha=$(git describe --always --dirty --abbrev=40 2>/dev/null || echo none)

"$bench/bench_scale" --context "build_type=$build_type" \
  --context "compiler=$compiler" --context "git_sha=$git_sha" \
  >BENCH_scale.json
host_cores=$(sed -n 's/^ *"host_cores": \([0-9]*\),$/\1/p' BENCH_scale.json)
gf_tier=$(sed -n 's/^ *"gf_tier": "\(.*\)",$/\1/p' BENCH_scale.json)

# run_gbench <binary> <BENCH_ name> [benchmark args...]
run_gbench() {
  bin=$1
  out=$2
  shift 2
  "$bench/$bin" \
    --benchmark_out="BENCH_$out.json" \
    --benchmark_out_format=json \
    --benchmark_context="host_cores=$host_cores" \
    --benchmark_context="gf_tier=$gf_tier" \
    --benchmark_context="build_type=$build_type" \
    --benchmark_context="compiler=$compiler" \
    --benchmark_context="git_sha=$git_sha" \
    "$@"
}

run_gbench bench_micro_codec micro_codec
run_gbench bench_vnf_pps vnf_pps \
  --benchmark_min_time=1 --benchmark_repetitions=3

# Each perfbench run prints its stamp line, then its result line.
python3 - "$git_sha" >BENCH_e2e.json <<'EOF'
import json
import subprocess
import sys

runs = []
for workload in ("butterfly", "shards_traced"):
    for trace in (0, 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "20", "--trace", str(trace)],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        stamp, result = (json.loads(line) for line in out.splitlines()[-2:])
        stamp["stamp"]["git_sha"] = sys.argv[1]
        runs.append({"trace": trace, **stamp, **result})
json.dump({"runs": runs}, sys.stdout, indent=2)
print()
EOF

echo "bench_all.sh: wrote BENCH_micro_codec.json BENCH_vnf_pps.json" \
  "BENCH_scale.json BENCH_e2e.json (gf tier $gf_tier, $host_cores cores)"
