// The file-system syscall engine: the Promela do..od loop of the paper's
// prototype (§4), realized as a mc::System over a pair of file systems.
//
// Each action issues one (meta-)operation with pool-drawn parameters to
// BOTH file systems, runs the integrity checks, and computes the combined
// abstract state. Concrete save/restore delegates to each FsUnderTest's
// strategy (remount / ioctl / VM).
#pragma once

#include <memory>
#include <optional>

#include "mc/state.h"
#include "mcfs/abstraction.h"
#include "mcfs/checker.h"
#include "mcfs/coverage.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"
#include "mcfs/persistence_oracle.h"
#include "mcfs/trace.h"

namespace mcfs::core {

struct EngineOptions {
  ParameterPool pool = ParameterPool::Default();
  CheckerOptions checker;
  AbstractionOptions abstraction;
  // Compare the two file systems' abstract states after every operation
  // (the "identical states" integrity check of §2). Return-value checks
  // run regardless.
  bool compare_states = true;
  // Cap on trace memory for long runs.
  std::size_t trace_cap = 1024;
  // Crash-consistency exploration (DESIGN.md §7.7). Effective only when
  // the FsUnderTests were built with crashable_device; the explorer
  // drives the actual checks via ExplorerOptions::crash_mode.
  CrashCheckOptions crash;
};

struct EngineCounters {
  std::uint64_t ops_executed = 0;
  std::uint64_t discrepancies = 0;
  // Infrastructure-level anomalies (abstraction walk failed, remount
  // failed): the corrupted-file-system symptom of §3.2.
  std::uint64_t corruption_events = 0;
  // Abstraction hot-path accounting, summed over both file systems. In
  // full-recompute mode every refresh is two full walks; in incremental
  // mode (AbstractionOptions::incremental) refreshes re-hash only the
  // touched nodes and full recomputes stay rare (cache misses, fallback
  // paths, paranoid cross-checks).
  std::uint64_t abstraction_full_recomputes = 0;
  std::uint64_t abstraction_incremental_refreshes = 0;
  std::uint64_t abstraction_nodes_rehashed = 0;
  // Regular-file content blocks digested by those rehashes: hashed, or
  // reused from an identical preceding block of the same file.
  std::uint64_t abstraction_blocks_hashed = 0;
  std::uint64_t abstraction_blocks_reused = 0;
  // Crash-exploration accounting: CrashCheck() invocations and the total
  // number of crash states mounted + validated across both sides.
  std::uint64_t crash_checks = 0;
  std::uint64_t crash_states_checked = 0;
  // Snapshot-pool accounting, sampled after every concrete save/discard
  // and summed over both file systems. Byte figures come from the
  // structurally-shared pool walk (fs::SnapshotStats): shared = reachable
  // from more than one live snapshot, exclusive = unique to one. All zero
  // for strategies without a snapshot pool (remount, VM).
  std::uint64_t snapshots_live = 0;
  std::uint64_t snapshots_peak = 0;
  std::uint64_t snapshot_total_bytes = 0;
  std::uint64_t snapshot_shared_bytes = 0;
  std::uint64_t snapshot_exclusive_bytes = 0;
};

class SyscallEngine final : public mc::System {
 public:
  // Both FsUnderTest must outlive the engine. The exception lists are
  // automatically extended with each file system's SpecialPaths() and the
  // free-space fill file.
  SyscallEngine(FsUnderTest& fs_a, FsUnderTest& fs_b, EngineOptions options);

  // mc::System.
  std::size_t ActionCount() const override { return actions_.size(); }
  std::string ActionName(std::size_t action) const override;
  Status ApplyAction(std::size_t action) override;
  bool violation_detected() const override { return violation_.has_value(); }
  std::string violation_report() const override {
    return violation_.value_or("");
  }
  Md5Digest AbstractHash() override;
  Result<mc::SnapshotId> SaveConcrete() override;
  Status RestoreConcrete(mc::SnapshotId id) override;
  Status DiscardConcrete(mc::SnapshotId id) override;
  std::uint64_t ConcreteStateBytes() const override;
  // Crash-consistency check (ExplorerOptions::crash_mode): enumerate the
  // crash states both sides' in-flight writes permit, remount each on a
  // recovery probe, validate against the persistence oracle. A contract
  // breach lands in violation_detected() like any other discrepancy.
  Status CrashCheck() override;
  // POR footprints: StaticTouchedPaths per action, expanded with
  // hard-link alias classes (computed once at construction; see
  // ComputeStaticFootprints).
  mc::ActionFootprint StaticActionFootprint(std::size_t action) const override {
    return footprints_.at(action);
  }

  // Clears a pending violation so exploration can continue past a known
  // discrepancy (used when cataloguing multiple differences).
  void ClearViolation() { violation_.reset(); }

  const EngineCounters& counters() const { return counters_; }
  const Trace& trace() const { return trace_; }
  // Outcome coverage across both file systems (paper §7 future work).
  const SyscallCoverage& coverage() const { return coverage_; }
  const std::vector<Operation>& actions() const { return actions_; }
  const EngineOptions& options() const { return options_; }
  // Mutable access for ablation harnesses (e.g. stripping the §3.4
  // workarounds after construction to measure the false positives they
  // suppress).
  EngineOptions& mutable_options() { return options_; }

  // True when this engine runs the incremental abstraction (requested
  // via options and both strategies restore coherently).
  bool incremental_abstraction() const { return incremental_; }

  // Crash-exploration hooks for trace replay (McfsReplayPair): replays
  // route each executed operation and the post-op crash check through
  // the same oracles the live search used. Inert when crash mode is off.
  bool crash_enabled() const {
    return crash_a_ != nullptr || crash_b_ != nullptr;
  }
  void CrashObserveOp(const Operation& op, const OpOutcome& outcome_a,
                      const OpOutcome& outcome_b);
  // "" = all crash states legal (or crash mode off / infra failure — a
  // replay must not count an infrastructure error as a reproduction).
  std::string CrashCheckDetail();
  void CrashSaveState(std::uint64_t key);
  Status CrashRestoreState(std::uint64_t key);
  void CrashDiscardState(std::uint64_t key);

 private:
  // Computes each side's abstract state (mount-state aware) and caches
  // the combined digest; flags a violation if the states differ. The
  // touched sets carry the just-executed operation's dirty paths per
  // file system; null means "no operation since the last refresh" (the
  // incremental caches then answer from memory when valid).
  Status RefreshAbstractState(bool check_equality,
                              const TouchedPathSet* touched_a,
                              const TouchedPathSet* touched_b);
  // Per-side digest under the active abstraction mode.
  Result<Md5Digest> SideDigest(FsUnderTest& fut, IncrementalAbstraction& inc,
                               const TouchedPathSet* touched);
  void SyncAbstractionCounters();
  // Refreshes the EngineCounters snapshot-pool fields from both sides'
  // FsUnderTest::StateStats().
  void SampleSnapshotStats();
  // Fills footprints_ from StaticTouchedPaths over actions_, then
  // expands each path with its hard-link alias class so the dependence
  // relation stays sound when two pool paths can name one inode.
  void ComputeStaticFootprints();

  FsUnderTest& fs_a_;
  FsUnderTest& fs_b_;
  EngineOptions options_;
  std::vector<Operation> actions_;
  std::vector<mc::ActionFootprint> footprints_;
  std::optional<std::string> violation_;
  std::optional<Md5Digest> cached_hash_;
  EngineCounters counters_;
  Trace trace_;
  SyscallCoverage coverage_;
  mc::SnapshotId next_snapshot_ = 1;
  // Incremental abstraction state (one cache per file system, epoch-
  // tagged against this engine's snapshot ids).
  bool incremental_ = false;
  IncrementalAbstraction inc_a_;
  IncrementalAbstraction inc_b_;
  // Crash-exploration state (null unless options_.crash.enabled and the
  // corresponding FsUnderTest records into a CrashableDisk).
  std::unique_ptr<CrashConsistencyChecker> crash_a_;
  std::unique_ptr<CrashConsistencyChecker> crash_b_;
  Status crash_seed_status_ = Status::Ok();
};

}  // namespace mcfs::core
