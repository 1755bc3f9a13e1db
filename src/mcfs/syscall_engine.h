// The file-system syscall engine: the Promela do..od loop of the paper's
// prototype (§4), realized as a mc::System over a panel of file systems.
//
// Each action issues one (meta-)operation with pool-drawn parameters to
// EVERY member, runs the integrity checks, and computes the combined
// abstract state. Concrete save/restore delegates to each FsUnderTest's
// strategy (remount / ioctl / VM).
//
// The paper checks a pair; a pair is simply a two-member panel. With
// N >= 3 members — the paper's §7 future work: "run more than two file
// systems concurrently ... and use a majority-voting approach to
// recognize incorrect file-system behavior" — the engine groups identical
// outcomes (and identical abstract states) and names the members outside
// the largest group as suspects. A tie for the largest group names no
// suspects, so a pair without an oracle only ever reports that its two
// members disagree.
#pragma once

#include <memory>
#include <optional>
#include <vector>

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
  // Index of an oracle member (the executable POSIX spec, FsKind::kSpec).
  // When set, votes are absolute rather than relative: the reference
  // group is the oracle's group regardless of its size, suspicion accrues
  // against every member that disagrees with the oracle — never against
  // the oracle itself — and an outvoted oracle is reported as "spec says
  // majority is wrong" instead of the spec accumulating suspicion. An
  // out-of-range index is ignored.
  std::optional<std::size_t> oracle_index;
};

struct EngineCounters {
  std::uint64_t ops_executed = 0;
  std::uint64_t discrepancies = 0;
  // Infrastructure-level anomalies (abstraction walk failed, remount
  // failed): the corrupted-file-system symptom of §3.2.
  std::uint64_t corruption_events = 0;
  // Abstraction hot-path accounting, summed over all members. In
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
  // Crash-exploration accounting: CrashCheck() invocations, the total
  // number of crash states validated across all members, and how many of
  // those needed a probe mount (the rest reused a recovered image).
  std::uint64_t crash_checks = 0;
  std::uint64_t crash_states_checked = 0;
  std::uint64_t crash_states_mounted = 0;
  // Snapshot-pool accounting, sampled after every concrete save/discard
  // and summed over all members. Byte figures come from the
  // structurally-shared pool walk (fs::SnapshotStats): shared = reachable
  // from more than one live snapshot, exclusive = unique to one. All zero
  // for strategies without a snapshot pool (remount, VM).
  std::uint64_t snapshots_live = 0;
  std::uint64_t snapshots_peak = 0;
  std::uint64_t snapshot_total_bytes = 0;
  std::uint64_t snapshot_shared_bytes = 0;
  std::uint64_t snapshot_exclusive_bytes = 0;
};

// Per-member verdict after a vote.
struct VoteResult {
  bool unanimous = true;
  // Index of each member's outcome group; the reference group — the
  // unique largest group, or the oracle's group in oracle mode — is 0.
  // In a tie there is no reference group and groups are numbered from 1.
  std::vector<int> group_of;
  // Members outside the reference group (the suspects). Empty in a tie.
  std::vector<std::size_t> minority;
  // Oracle mode only: the oracle's group was strictly smaller than the
  // numerically largest group — relative voting would have blamed the
  // oracle, absolute checking blames the N-1 implementations instead.
  bool oracle_overruled_majority = false;
  // The vote text; in a tie, the CompareOutcomes detail of member 0
  // against the first member that disagrees with it.
  std::string detail;
};

class SyscallEngine final : public mc::System {
 public:
  // Every FsUnderTest must outlive the engine; a panel has at least two
  // members, and the trace records the outcomes of members 0 and 1. The
  // exception lists are automatically extended with each member's
  // SpecialPaths() and the free-space fill file.
  SyscallEngine(std::vector<FsUnderTest*> filesystems, EngineOptions options);

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
  // crash states every member's in-flight writes permit, remount each on a
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
  // Outcome coverage across all members (paper §7 future work).
  const SyscallCoverage& coverage() const { return coverage_; }
  const std::vector<Operation>& actions() const { return actions_; }
  const EngineOptions& options() const { return options_; }
  // Mutable access for ablation harnesses (e.g. stripping the §3.4
  // workarounds after construction to measure the false positives they
  // suppress).
  EngineOptions& mutable_options() { return options_; }

  // True when this engine runs the incremental abstraction (requested
  // via options and every member strategy restores coherently).
  bool incremental_abstraction() const { return incremental_; }

  std::size_t fs_count() const { return fs_.size(); }
  const std::string& fs_name(std::size_t index) const {
    return fs_[index]->name();
  }
  // Cumulative suspicion counters: how often each member landed outside
  // the reference group. The buggy implementation accumulates suspicion;
  // ties (every pair without an oracle) accrue none. In oracle mode the
  // oracle's own entry stays zero by construction.
  const std::vector<std::uint64_t>& suspicion_counts() const {
    return suspicion_;
  }
  // Oracle mode: how often each member disagreed with the oracle (outcome
  // or abstract state). All zeros when no oracle is configured.
  const std::vector<std::uint64_t>& oracle_disagreement_counts() const {
    return oracle_disagreements_;
  }

  // Exposed for tests: groups outcomes and elects the unique largest
  // group — or, when `oracle` names a member, that member's group as the
  // absolute reference (with 2 members this degenerates to plain
  // absolute checking against the oracle).
  static VoteResult Vote(const Operation& op,
                         const std::vector<OpOutcome>& outcomes,
                         const CheckerOptions& options,
                         std::optional<std::size_t> oracle = std::nullopt);

  // Crash-exploration hooks for trace replay (McfsReplayPair): replays
  // route each executed operation and the post-op crash check through
  // the same oracles the live search used. A replay drives a pair, so
  // CrashObserveOp feeds members 0 and 1. Inert when crash mode is off.
  bool crash_enabled() const;
  void CrashObserveOp(const Operation& op, const OpOutcome& outcome_a,
                      const OpOutcome& outcome_b);
  // "" = all crash states legal (or crash mode off / infra failure — a
  // replay must not count an infrastructure error as a reproduction).
  std::string CrashCheckDetail();
  void CrashSaveState(std::uint64_t key);
  Status CrashRestoreState(std::uint64_t key);
  void CrashDiscardState(std::uint64_t key);

 private:
  // Computes each member's abstract state (mount-state aware) and caches
  // the combined digest; flags a violation if the states differ. With
  // `touched` set, touched_ carries the just-executed operation's dirty
  // paths per member; otherwise there was no operation since the last
  // refresh (the incremental caches then answer from memory when valid).
  Status RefreshAbstractState(bool check_equality, bool touched);
  // One member's digest under the active abstraction mode.
  Result<Md5Digest> MemberDigest(std::size_t member,
                                 const TouchedPathSet* touched);
  void SyncAbstractionCounters();
  // The violation text for an outcome or state disagreement. A tie
  // reports the first disagreeing pair; a vote also charges suspicion
  // to the members outside the reference group.
  std::string OutcomeVerdict(const Operation& op);
  std::string StateVerdict();
  void Suspect(const std::vector<std::size_t>& members);
  // Refreshes the EngineCounters snapshot-pool fields from every
  // member's FsUnderTest::StateStats().
  void SampleSnapshotStats();
  // Fills footprints_ from StaticTouchedPaths over actions_, then
  // expands each path with its hard-link alias class so the dependence
  // relation stays sound when two pool paths can name one inode.
  void ComputeStaticFootprints();

  std::vector<FsUnderTest*> fs_;
  EngineOptions options_;
  std::vector<Operation> actions_;
  std::vector<mc::ActionFootprint> footprints_;
  std::optional<std::string> violation_;
  std::optional<Md5Digest> cached_hash_;
  EngineCounters counters_;
  Trace trace_;
  SyscallCoverage coverage_;
  mc::SnapshotId next_snapshot_ = 1;
  std::vector<std::uint64_t> suspicion_;
  std::vector<std::uint64_t> oracle_disagreements_;
  // Incremental abstraction state (one cache per member, epoch-tagged
  // against this engine's snapshot ids).
  bool incremental_ = false;
  std::vector<IncrementalAbstraction> inc_;
  // Crash-exploration state, one slot per member (null unless
  // options_.crash.enabled and that FsUnderTest records into a
  // CrashableDisk).
  std::vector<std::unique_ptr<CrashConsistencyChecker>> crash_;
  Status crash_seed_status_ = Status::Ok();
  // Per-operation scratch, one slot per member, reused across actions so
  // the cheapest step allocates no panel-sized buffers.
  std::vector<OpOutcome> outcomes_;
  std::vector<TouchedPathSet> touched_;
  std::vector<Md5Digest> hashes_;
};

}  // namespace mcfs::core
