#!/usr/bin/env bash
# Runs the network-path benchmarks — the conn_scale/* connection-scaling
# rows (the epoll reactor at 1/4/16/64 workers, DESIGN.md §7.9) and the
# swarm_remote/* loopback-swarm rows — with machine-readable JSON output
# so the serving model's throughput can be tracked across PRs. The
# repo-tracked artifact is BENCH_net.json. Usage:
#
#   scripts/bench_net.sh [out.json] [extra benchmark args...]
#
# e.g. `scripts/bench_net.sh /tmp/net.json
#       --benchmark_filter=conn_scale` for just the scaling sweep.
# Builds the default tree if needed.
#
# Note: swarm_remote/solo+dist rows depend on the swarm_frontier rows
# running first (they set the coverage target K), so the default filter
# includes them.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_BUILD_DIR:-${repo_root}/build}"
out="${1:-BENCH_net.json}"
shift || true

cmake -B "${build_dir}" -S "${repo_root}" > /dev/null
cmake --build "${build_dir}" -j --target bench_swarm > /dev/null

"${build_dir}/bench/bench_swarm" \
    --benchmark_filter='conn_scale|swarm_remote|swarm_frontier' \
    --benchmark_format=json --benchmark_out="${out}" \
    --benchmark_out_format=json "$@"
echo "wrote ${out}"
