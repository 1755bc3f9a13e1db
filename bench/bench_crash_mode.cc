// Crash-exploration overhead (DESIGN.md §7.7): the same closed workload
// explored with crash mode off vs kEveryOp, per file-system pair and
// barrier model. Crash mode pays one device snapshot + up to max_states
// remount-and-validate probes per applied operation, so the interesting
// numbers are the slowdown factor and the crash-states-per-op rate the
// barrier discipline actually produces (ext2f only writes at fsync; the
// log-structured jffs2f appends on every op).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "mcfs/harness.h"

namespace {

using namespace mcfs;
using namespace mcfs::core;

struct Row {
  double wall_ops_per_sec = 0;
  std::uint64_t crash_checks = 0;
  std::uint64_t crash_states = 0;
  std::uint64_t crash_states_mounted = 0;
};

std::map<std::string, Row> g_rows;

void RunCase(benchmark::State& state, const std::string& name, FsKind a,
             FsKind b, bool crash, storage::BarrierModel model,
             std::uint64_t ops) {
  for (auto _ : state) {
    McfsConfig config;
    config.fs_a.kind = a;
    config.fs_a.strategy = StateStrategy::kVfsApi;
    config.fs_a.fuse_transport = false;
    config.fs_a.block_cache_capacity = 0;
    config.fs_b = config.fs_a;
    config.fs_b.kind = b;
    config.engine.pool = ParameterPool::Tiny();
    config.engine.pool.include_fsync_ops = true;
    config.engine.abstraction.incremental = false;
    config.engine.crash.enabled = crash;
    config.engine.crash.states.barrier_model = model;
    config.explore.mode = mc::SearchMode::kDfs;
    config.explore.crash_mode =
        crash ? mc::CrashMode::kEveryOp : mc::CrashMode::kOff;
    config.explore.por = false;
    config.explore.max_operations = ops;
    config.explore.max_depth = 3;
    config.explore.seed = 1;
    auto mcfs = Mcfs::Create(config);
    if (!mcfs.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    McfsReport report = mcfs.value()->Run();
    if (report.stats.violation_found) {
      state.SkipWithError("unexpected violation");
      return;
    }
    Row row;
    row.wall_ops_per_sec = report.wall_ops_per_sec;
    row.crash_checks = report.counters.crash_checks;
    row.crash_states = report.counters.crash_states_checked;
    row.crash_states_mounted = report.counters.crash_states_mounted;
    g_rows[name] = row;
    state.counters["wall_ops_per_s"] = row.wall_ops_per_sec;
    state.counters["crash_states"] = static_cast<double>(row.crash_states);
    state.counters["crash_states_mounted"] =
        static_cast<double>(row.crash_states_mounted);
  }
}

void PrintSummary() {
  std::printf("\n=== Crash-mode overhead (wall ops/s) ===\n");
  std::printf("%-36s %12s %12s %14s\n", "configuration", "wall ops/s",
              "crash checks", "crash states");
  for (const auto& [name, row] : g_rows) {
    std::printf("%-36s %12.1f %12llu %14llu\n", name.c_str(),
                row.wall_ops_per_sec,
                static_cast<unsigned long long>(row.crash_checks),
                static_cast<unsigned long long>(row.crash_states));
  }
  auto factor = [](const char* off, const char* on) {
    auto io = g_rows.find(off);
    auto in = g_rows.find(on);
    if (io == g_rows.end() || in == g_rows.end() ||
        in->second.wall_ops_per_sec == 0) {
      return 0.0;
    }
    return io->second.wall_ops_per_sec / in->second.wall_ops_per_sec;
  };
  std::printf("\nslowdown factors (crash mode on vs off):\n");
  std::printf("  ext2-vs-jffs2 reorderable: %.1fx\n",
              factor("ext2-vs-jffs2 off", "ext2-vs-jffs2 reorderable"));
  std::printf("  ext2-vs-jffs2 ordered:     %.1fx\n",
              factor("ext2-vs-jffs2 off", "ext2-vs-jffs2 ordered"));
  std::printf("  ext4-vs-ext4  reorderable: %.1fx\n",
              factor("ext4-vs-ext4 off", "ext4-vs-ext4 reorderable"));
}

}  // namespace

int main(int argc, char** argv) {
  auto reg = [](const char* name, FsKind a, FsKind b, bool crash,
                storage::BarrierModel model, std::uint64_t ops) {
    benchmark::RegisterBenchmark(name, [=](benchmark::State& state) {
      RunCase(state, name, a, b, crash, model, ops);
    })->Iterations(1)->Unit(benchmark::kMillisecond);
  };
  using storage::BarrierModel;
  reg("ext2-vs-jffs2 off", FsKind::kExt2, FsKind::kJffs2, false,
      BarrierModel::kReorderable, 600);
  reg("ext2-vs-jffs2 reorderable", FsKind::kExt2, FsKind::kJffs2, true,
      BarrierModel::kReorderable, 600);
  reg("ext2-vs-jffs2 ordered", FsKind::kExt2, FsKind::kJffs2, true,
      BarrierModel::kOrdered, 600);
  reg("ext4-vs-ext4 off", FsKind::kExt4, FsKind::kExt4, false,
      BarrierModel::kReorderable, 600);
  reg("ext4-vs-ext4 reorderable", FsKind::kExt4, FsKind::kExt4, true,
      BarrierModel::kReorderable, 600);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return 0;
}
