#include "workloads.h"

namespace perfbench {

namespace {

using mcfs::core::Backend;
using mcfs::core::FsKind;
using mcfs::core::McfsConfig;
using mcfs::core::ParameterPool;
using mcfs::core::StateStrategy;

// bench_fig2_speed's state-heavy pool: the Default namespace with writes
// of up to 128 KB, so node-content hashing dominates each step.
ParameterPool BulkPool() {
  ParameterPool pool = ParameterPool::Default();
  pool.write_sizes = {3000, 32768, 131072};
  pool.truncate_sizes = {0, 8192, 131072};
  return pool;
}

// bench_fig2_speed's PairConfig with the repository defaults
// (incremental abstraction, POR, COW snapshots): DFS at depth 8 and the
// scaled-down memory model, so sim_ops_per_s lines up with the Figure 2
// rows.
McfsConfig Fig2Pair(FsKind a, FsKind b, ParameterPool pool,
                    std::uint64_t max_operations, std::uint64_t seed) {
  McfsConfig config;
  config.fs_a.kind = a;
  config.fs_b.kind = b;
  config.fs_a.backend = Backend::kRam;
  config.fs_b.backend = Backend::kRam;
  auto strategy = [](FsKind kind) {
    return (kind == FsKind::kVerifs1 || kind == FsKind::kVerifs2)
               ? StateStrategy::kIoctl
               : StateStrategy::kRemountPerOp;
  };
  config.fs_a.strategy = strategy(a);
  config.fs_b.strategy = strategy(b);
  config.engine.pool = std::move(pool);
  config.explore.mode = mcfs::mc::SearchMode::kDfs;
  config.explore.max_operations = max_operations;
  config.explore.max_depth = 8;
  config.explore.seed = seed;
  config.enable_memory_model = true;
  config.memory.ram_bytes = 1ull << 30;
  config.memory.swap_bytes = 64ull << 30;
  config.memory.swap_in_cost_per_mb = 1'000'000;
  config.memory.swap_out_cost_per_mb = 1'000'000;
  return config;
}

// The cheapest step the checker has, so per-op overhead in the explorer
// and engine shows first.
McfsConfig VerifsSmall(std::uint64_t seed) {
  return Fig2Pair(FsKind::kVerifs1, FsKind::kVerifs2,
                  ParameterPool::Default(), 2'000, seed);
}

// Same layers as verifs-small with files up to 128 KB: node-content
// hashing dominates ApplyAction.
McfsConfig VerifsBulk(std::uint64_t seed) {
  return Fig2Pair(FsKind::kVerifs1, FsKind::kVerifs2, BulkPool(), 1'000,
                  seed);
}

// The paper's kernel pair under remount-per-op: every step remounts both
// sides, and each jffs2f mount replays its log.
McfsConfig KernelRemount(std::uint64_t seed) {
  return Fig2Pair(FsKind::kExt4, FsKind::kJffs2, ParameterPool::Default(),
                  100, seed);
}

// Crash-state enumeration with recovery-probe mounts after every op, on
// crashable RAM devices restored through the VFS-API strategy. Depth 4:
// with 100-op probes, states per kop spread across seeds by two thirds
// of what they do at depth 5, and this is the slowest workload.
McfsConfig Crash(std::uint64_t seed) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kExt2;
  config.fs_b.kind = FsKind::kExt4;
  for (auto* fs : {&config.fs_a, &config.fs_b}) {
    fs->strategy = StateStrategy::kVfsApi;
    fs->block_cache_capacity = 0;
  }
  config.engine.pool = ParameterPool::Default();
  config.engine.pool.include_fsync_ops = true;
  config.engine.abstraction.incremental = false;
  config.engine.crash.enabled = true;
  config.explore.mode = mcfs::mc::SearchMode::kDfs;
  config.explore.max_operations = 100;
  config.explore.max_depth = 4;
  config.explore.seed = seed;
  config.explore.crash_mode = mcfs::mc::CrashMode::kEveryOp;
  config.explore.por = false;
  return config;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  // On a 4-vCPU KVM guest a verifs-small round takes about 4 s, so a
  // 20-s run takes the median of several; the slower workloads need a
  // whole run for one round to average over enough probes.
  static const std::vector<Workload> workloads = {
      {"verifs-small", 7, 50, &VerifsSmall},
      {"verifs-bulk", 7, 66, &VerifsBulk},
      {"kernel-remount", 7, 76, &KernelRemount},
      {"crash", 1, 48, &Crash},
  };
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t ProbeSeed(std::uint64_t seed, std::size_t probe) {
  if (probe == 0) return seed;
  std::uint64_t z = seed + probe * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
