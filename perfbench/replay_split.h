// The replay split of SyscallEngine::ApplyAction: a live run's linear
// trace is replayed on a fresh Mcfs with the same config, through the
// public calls ApplyAction is built from, timing each phase. Snapshot
// records go through FsUnderTest::SaveState/RestoreState and the
// abstraction epochs, so the replay retraces the live run state for
// state and must end on its final digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcfs/harness.h"

namespace perfbench {

// Per-side abstract digests from a full walk, plus the crash recorders'
// state digests (zero without a crashable device).
struct FinalDigests {
  mcfs::Md5Digest a;
  mcfs::Md5Digest b;
  std::uint64_t crash_a = 0;
  std::uint64_t crash_b = 0;

  friend bool operator==(const FinalDigests&, const FinalDigests&) = default;
};

// Walks both sides of `mcfs` (mounting them if the strategy left them
// unmounted) under the engine's abstraction options.
mcfs::Result<FinalDigests> ComputeFinalDigests(mcfs::core::Mcfs& mcfs);

struct ReplaySplit {
  std::uint64_t operations = 0;   // operation records replayed
  std::uint64_t checkpoints = 0;  // kCheckpoint records
  std::uint64_t restores = 0;     // kRestore records
  // Snapshots discarded, in order: a restore discards the snapshots
  // above its target on the DFS stack, and the end of the trace unwinds
  // the rest bottom-up, as the explorer does.
  std::vector<std::uint64_t> discard_order;
  // Host ns summed over every operation record, per phase.
  std::int64_t mount_ns = 0;    // FsUnderTest::BeginOp + EndOp, both sides
  std::int64_t op_ns = 0;       // ExecuteOp, both sides
  std::int64_t compare_ns = 0;  // CompareOutcomes
  std::int64_t refresh_ns = 0;  // TouchedPaths + abstraction refresh
  std::int64_t observe_ns = 0;  // persistence-oracle ObserveOp (crash mode)
  // Replayed errnos that differ from the recorded ones, and operations
  // whose outcomes or abstract states differ across the pair.
  std::uint64_t outcome_mismatches = 0;
  std::uint64_t violations = 0;
  std::uint64_t infra_errors = 0;  // calls that returned an error status
  // The replay's last per-side digests agree with a from-scratch digest
  // of the final tree.
  bool last_digests_consistent = true;
  FinalDigests final_digests;

  std::int64_t apply_ns() const {
    return mount_ns + op_ns + compare_ns + refresh_ns + observe_ns;
  }
};

// Replays `trace` (a complete linear history: trace_cap must have kept
// every record) on a fresh Mcfs built from `config`.
mcfs::Result<ReplaySplit> RunReplaySplit(const mcfs::core::McfsConfig& config,
                                         const mcfs::core::Trace& trace);

}  // namespace perfbench
