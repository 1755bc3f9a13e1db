#!/usr/bin/env bash
# One-command ThreadSanitizer sweep of the racy-path suite: configures a
# separate build-tsan tree with -DMCFS_TSAN=ON, builds it, and runs every
# test carrying the `concurrent`, `abstraction`, `por`, `snapshot`,
# `crash`, `net`, `spec`, or `engine` ctest label (the shared visited stores, the work-stealing
# frontier, the incremental abstraction caches that swarm workers keep
# per-instance, the sleep-set bookkeeping the swarm gating keeps out of
# shared-store runs, the COW snapshot suite whose refcounted chunks and
# blocks are exactly the kind of shared immutable state TSan should see
# only read concurrently, the crash-exploration suite whose recovery
# probes mount device images concurrently snapshotted by the explorer,
# and the reactor FrameServer suite whose deferred replies cross from
# service threads into event-loop shards, plus the executable-spec suite
# whose differential runs drive two full FS stacks side by side, and the
# syscall engine's own suites, whose panels drive three or more).
# Usage:
#
#   scripts/tsan.sh [extra ctest args...]
#
# e.g. `scripts/tsan.sh -R Frontier` to narrow to the frontier tests.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" -DMCFS_TSAN=ON
cmake --build "${build_dir}" -j
ctest --test-dir "${build_dir}" \
      -L 'concurrent|abstraction|por|snapshot|crash|net|spec|engine' \
      --output-on-failure "$@"
