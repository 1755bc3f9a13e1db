#!/usr/bin/env bash
# One-command AddressSanitizer+UBSan sweep: configures a separate
# build-asan tree with -DMCFS_ASAN=ON, builds it, and runs the full test
# suite under the sanitizers. The shrink/mutation machinery builds
# hundreds of short-lived file-system pairs per minimization, which is
# exactly the allocation churn ASan is good at auditing. Usage:
#
#   scripts/asan.sh [extra ctest args...]
#
# e.g. `scripts/asan.sh -L mutation` to narrow to the shrink/campaign
# suite, `scripts/asan.sh -L crash` for the crash-exploration suite
# (the CrashableDisk journal + recovery-probe churn is allocation-heavy,
# and each checker's recovered-image memo copies captured trees into its
# LRU entries and frees them on eviction),
# `scripts/asan.sh -L snapshot` for the COW snapshot suite — the
# leak detector is what proves a discarded snapshot's refcounted chunks
# and blocks actually free — `scripts/asan.sh -L spec` for the
# executable-spec suite, whose O(state) deep-copy snapshots and
# export/import round-trips are pure allocation traffic — or
# `scripts/asan.sh -L abstraction` for the digest suite, whose per-4 KB
# block digests slice and compare read buffers at block boundaries, or
# `scripts/asan.sh -L fs` for the device and file-system internals suite
# (storage_test, fs_internals_test, device_image_test,
# hostile_image_test), whose jffs2f replay compares and copies flash
# byte ranges against its checksum memo, whose block-shared images
# clone and free refcounted 4 KB blocks, and whose damaged images feed
# every format's mount and walk, or
# `scripts/asan.sh -L engine` for the syscall engine's own suites
# (engine_test, extensions_test), whose pairs and panels save, restore
# and discard snapshots on every member.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_ASAN_BUILD_DIR:-${repo_root}/build-asan}"

cmake -B "${build_dir}" -S "${repo_root}" -DMCFS_ASAN=ON
# One job per CPU, for the build and for ctest: a bare -j lets make start
# every ASan compile at once, which exhausts memory, and ctest before 3.29
# takes the next argument (e.g. the -L of a label filter) as its value.
cmake --build "${build_dir}" -j "$(nproc)"
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"
