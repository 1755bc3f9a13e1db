#include "mcfs/syscall_engine.h"

#include <algorithm>
#include <unordered_map>

#include "fs/path.h"
#include "mcfs/equalize.h"

namespace mcfs::core {

namespace {

// Intersection of the two feature sets.
std::vector<fs::FsFeature> CommonFeatures(FsUnderTest& a, FsUnderTest& b) {
  const auto fa = a.SupportedFeatures();
  const auto fb = b.SupportedFeatures();
  std::vector<fs::FsFeature> common;
  for (fs::FsFeature f : fa) {
    if (std::find(fb.begin(), fb.end(), f) != fb.end()) common.push_back(f);
  }
  return common;
}

}  // namespace

SyscallEngine::SyscallEngine(FsUnderTest& fs_a, FsUnderTest& fs_b,
                             EngineOptions options)
    : fs_a_(fs_a), fs_b_(fs_b), options_(std::move(options)) {
  // Extend the exception lists with FS-created special paths (§3.4) and
  // the free-space fill file.
  auto add_special = [this](const std::string& path) {
    options_.abstraction.exception_list.push_back(path);
    options_.checker.special_names.push_back(fs::Basename(path));
  };
  for (const auto& path : fs_a_.SpecialPaths()) add_special(path);
  for (const auto& path : fs_b_.SpecialPaths()) add_special(path);
  add_special(kFillFilePath);
  options_.abstraction.ignore_directory_sizes =
      options_.checker.ignore_directory_sizes;

  // The incremental cache assumes restores reproduce the saved logical
  // state; kMountOnce breaks that on purpose (§3.2), so it always runs
  // the full walk — that is how its corruption gets observed.
  incremental_ =
      options_.abstraction.incremental &&
      fs_a_.config().strategy != StateStrategy::kMountOnce &&
      fs_b_.config().strategy != StateStrategy::kMountOnce;

  actions_ = options_.pool.EnumerateAll(CommonFeatures(fs_a_, fs_b_));
  ComputeStaticFootprints();

  // Crash-exploration checkers, one per side with a recording device.
  // The oracle ignores the same noise paths the abstraction does.
  if (options_.crash.enabled) {
    auto build = [this](FsUnderTest& fut) {
      if (fut.crash_disk() == nullptr) return;
      CrashCheckOptions side = options_.crash;
      for (const auto& path : fut.SpecialPaths()) {
        side.oracle.exempt_paths.push_back(path);
      }
      side.oracle.exempt_paths.push_back(std::string(kFillFilePath));
      auto checker = std::make_unique<CrashConsistencyChecker>(
          &fut, std::move(side));
      if (Status s = checker->SeedInitial();
          !s.ok() && crash_seed_status_.ok()) {
        crash_seed_status_ = s;
      }
      (&fut == &fs_a_ ? crash_a_ : crash_b_) = std::move(checker);
    };
    build(fs_a_);
    build(fs_b_);
  }
}

std::string SyscallEngine::ActionName(std::size_t action) const {
  return actions_.at(action).ToString();
}

void SyscallEngine::ComputeStaticFootprints() {
  footprints_.clear();
  footprints_.reserve(actions_.size());
  for (const Operation& op : actions_) {
    footprints_.push_back(StaticTouchedPaths(op));
  }

  // Hard-link alias classes. link(a, b) makes two pool paths name one
  // inode, so an op whose footprint holds one name can mutate (or read)
  // node state hashed under the other — a purely lexical dependence
  // relation would wrongly commute write(a) with stat(b). Classes are
  // seeded from every enumerated kLink pair, then grown along rename
  // edges to a fixpoint: rename can carry an aliased *name* to a new
  // path (link(a,b); rename(a,c) leaves c and b aliased), but a rename
  // only matters once one of its endpoints' classes is already
  // nontrivial — unconditional rename unioning would fuse nearly the
  // whole pool and zero out the reduction. Symlinks seed nothing: the
  // digest hashes the link node itself (lstat-shaped), and no enumerated
  // action resolves through a symlink component; revisit if
  // follow-the-link operations are ever added to the pool.
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::size_t> uf;
  auto node = [&index, &uf](const std::string& path) {
    const auto [it, inserted] = index.emplace(path, uf.size());
    if (inserted) uf.push_back(it->second);
    return it->second;
  };
  auto find = [&uf](std::size_t x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  auto unite = [&uf, &find](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) uf[a] = b;
  };

  bool any_link = false;
  for (const Operation& op : actions_) {
    if (op.kind == OpKind::kLink) {
      unite(node(op.path), node(op.path2));
      any_link = true;
    }
  }
  if (!any_link) return;

  auto nontrivial = [&uf, &find](std::size_t x) {
    x = find(x);
    std::size_t members = 0;
    for (std::size_t i = 0; i < uf.size(); ++i) {
      if (find(i) == x && ++members >= 2) return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Operation& op : actions_) {
      if (op.kind != OpKind::kRename || op.path == op.path2) continue;
      const std::size_t a = node(op.path);
      const std::size_t b = node(op.path2);
      if (find(a) == find(b)) continue;
      if (nontrivial(a) || nontrivial(b)) {
        unite(a, b);
        changed = true;
      }
    }
  }

  std::unordered_map<std::size_t, std::vector<std::string>> classes;
  for (const auto& [path, idx] : index) {
    classes[find(idx)].push_back(path);
  }
  for (mc::ActionFootprint& fp : footprints_) {
    if (fp.full || fp.paths.empty()) continue;
    std::vector<std::string> expanded = fp.paths;
    for (const std::string& path : fp.paths) {
      const auto it = index.find(path);
      if (it == index.end()) continue;
      const std::vector<std::string>& cls = classes[find(it->second)];
      if (cls.size() < 2) continue;
      for (const std::string& alias : cls) {
        if (std::find(expanded.begin(), expanded.end(), alias) ==
            expanded.end()) {
          expanded.push_back(alias);
        }
      }
    }
    fp.paths = std::move(expanded);
  }
}

Result<Md5Digest> SyscallEngine::SideDigest(FsUnderTest& fut,
                                            IncrementalAbstraction& inc,
                                            const TouchedPathSet* touched) {
  if (!incremental_) {
    ++counters_.abstraction_full_recomputes;
    return ComputeAbstractState(fut.vfs(), options_.abstraction);
  }
  return touched != nullptr
             ? inc.Refresh(fut.vfs(), options_.abstraction, *touched)
             : inc.Current(fut.vfs(), options_.abstraction);
}

void SyscallEngine::SyncAbstractionCounters() {
  if (!incremental_) return;
  counters_.abstraction_full_recomputes =
      inc_a_.full_recomputes() + inc_b_.full_recomputes();
  counters_.abstraction_incremental_refreshes =
      inc_a_.incremental_refreshes() + inc_b_.incremental_refreshes();
  counters_.abstraction_nodes_rehashed =
      inc_a_.nodes_rehashed() + inc_b_.nodes_rehashed();
  counters_.abstraction_blocks_hashed =
      inc_a_.blocks_hashed() + inc_b_.blocks_hashed();
  counters_.abstraction_blocks_reused =
      inc_a_.blocks_reused() + inc_b_.blocks_reused();
}

Status SyscallEngine::RefreshAbstractState(bool check_equality,
                                           const TouchedPathSet* touched_a,
                                           const TouchedPathSet* touched_b) {
  // A valid incremental cache answers from memory with no walk at all —
  // in that case the file systems need not even be mounted (DFS restores
  // hit this constantly).
  const bool from_cache = incremental_ && touched_a == nullptr &&
                          touched_b == nullptr && inc_a_.valid() &&
                          inc_b_.valid();
  if (!from_cache) {
    // The walk needs mounted file systems; remount-per-op strategies may
    // have them unmounted at this point.
    if (Status s = fs_a_.EnsureMounted(); !s.ok()) return s;
    if (Status s = fs_b_.EnsureMounted(); !s.ok()) return s;
  }

  auto hash_a = SideDigest(fs_a_, inc_a_, touched_a);
  auto hash_b = SideDigest(fs_b_, inc_b_, touched_b);
  SyncAbstractionCounters();
  if (!hash_a.ok() || !hash_b.ok()) {
    // The walk itself failed: a §3.2-style corrupted file system (e.g.
    // dangling dcache entries after an unsynchronized restore).
    ++counters_.corruption_events;
    violation_ = std::string("file system corruption detected: "
                             "abstraction walk failed on ") +
                 (!hash_a.ok() ? fs_a_.name() : fs_b_.name()) + " with " +
                 std::string(ErrnoName(!hash_a.ok() ? hash_a.error()
                                                    : hash_b.error()));
    return Status::Ok();  // reported as violation, not infrastructure error
  }

  // Paranoid mode (verify_every_n): an incremental digest disagreeing
  // with its own from-scratch recompute is an infrastructure bug in the
  // cache, not a file-system discrepancy — surface it loudly.
  if (incremental_) {
    for (const auto* inc : {&inc_a_, &inc_b_}) {
      if (inc->divergence().has_value()) {
        ++counters_.corruption_events;
        violation_ = "incremental abstraction divergence on " +
                     (inc == &inc_a_ ? fs_a_.name() : fs_b_.name()) + ": " +
                     *inc->divergence();
        return Status::Ok();
      }
    }
  }

  if (check_equality && options_.compare_states &&
      hash_a.value() != hash_b.value()) {
    ++counters_.discrepancies;
    violation_ = "state divergence: abstract states differ (" +
                 fs_a_.name() + "=" + hash_a.value().ToHex() + ", " +
                 fs_b_.name() + "=" + hash_b.value().ToHex() + ")";
  }

  // Combined digest = hash(A || B): the visited-state identity of the
  // *pair*, which is what exploration dedupes on.
  Md5 combined;
  combined.Update(ByteView(hash_a.value().bytes.data(), 16));
  combined.Update(ByteView(hash_b.value().bytes.data(), 16));
  // Crash mode: two logically identical states with different in-flight
  // write sets reach different crash states, so the journals join the
  // visited identity — otherwise dedup would skip schedules whose only
  // difference is what a crash can tear.
  if (crash_a_ != nullptr && fs_a_.crash_disk() != nullptr) {
    combined.UpdateU64(fs_a_.crash_disk()->StateDigest());
  }
  if (crash_b_ != nullptr && fs_b_.crash_disk() != nullptr) {
    combined.UpdateU64(fs_b_.crash_disk()->StateDigest());
  }
  cached_hash_ = combined.Final();
  return Status::Ok();
}

Status SyscallEngine::ApplyAction(std::size_t action) {
  if (action >= actions_.size()) return Errno::kEINVAL;
  const Operation& op = actions_[action];
  violation_.reset();
  cached_hash_.reset();

  if (Status s = fs_a_.BeginOp(); !s.ok()) {
    ++counters_.corruption_events;
    violation_ = "remount failed on " + fs_a_.name() + ": " +
                 std::string(ErrnoName(s.error()));
    return Status::Ok();
  }
  if (Status s = fs_b_.BeginOp(); !s.ok()) {
    ++counters_.corruption_events;
    inc_a_.Invalidate();  // BeginOp on A may have remounted after the op
    violation_ = "remount failed on " + fs_b_.name() + ": " +
                 std::string(ErrnoName(s.error()));
    return Status::Ok();
  }

  const OpOutcome outcome_a = ExecuteOp(fs_a_.vfs(), op);
  const OpOutcome outcome_b = ExecuteOp(fs_b_.vfs(), op);
  ++counters_.ops_executed;
  coverage_.Record(op.kind, outcome_a.error);
  coverage_.Record(op.kind, outcome_b.error);

  const CheckVerdict verdict =
      CompareOutcomes(op, outcome_a, outcome_b, options_.checker);
  if (!verdict.ok) {
    ++counters_.discrepancies;
    violation_ = verdict.detail + " (" + fs_a_.name() + " vs " +
                 fs_b_.name() + ")";
  }

  // Full-state integrity check + abstract hash for visited matching.
  if (!violation_.has_value()) {
    const TouchedPathSet touched_a = TouchedPaths(op, outcome_a);
    const TouchedPathSet touched_b = TouchedPaths(op, outcome_b);
    if (Status s = RefreshAbstractState(/*check_equality=*/true, &touched_a,
                                        &touched_b);
        !s.ok()) {
      return s;
    }
    // Feed the persistence oracles while the file systems are mounted.
    if (!violation_.has_value()) {
      if (crash_a_ != nullptr) {
        if (Status s = crash_a_->ObserveOp(op, outcome_a); !s.ok()) return s;
      }
      if (crash_b_ != nullptr) {
        if (Status s = crash_b_->ObserveOp(op, outcome_b); !s.ok()) return s;
      }
    }
  } else {
    // The operation ran but its effects were never folded into the
    // caches; if exploration continues past this violation
    // (ClearViolation), the next digest must come from a fresh walk.
    inc_a_.Invalidate();
    inc_b_.Invalidate();
  }

  trace_.Append(op, outcome_a, outcome_b, violation_.has_value());
  trace_.TrimToLast(options_.trace_cap);

  if (Status s = fs_a_.EndOp(); !s.ok()) return s;
  if (Status s = fs_b_.EndOp(); !s.ok()) return s;
  return Status::Ok();
}

Md5Digest SyscallEngine::AbstractHash() {
  if (!cached_hash_.has_value()) {
    if (Status s = RefreshAbstractState(/*check_equality=*/false,
                                        /*touched_a=*/nullptr,
                                        /*touched_b=*/nullptr);
        !s.ok() || !cached_hash_.has_value()) {
      // Infrastructure failure: return a sentinel digest; the explorer
      // will already have surfaced the violation.
      return Md5Digest{};
    }
    (void)fs_a_.EndOp();
    (void)fs_b_.EndOp();
  }
  return *cached_hash_;
}

Result<mc::SnapshotId> SyscallEngine::SaveConcrete() {
  const mc::SnapshotId id = next_snapshot_++;
  if (Status s = fs_a_.SaveState(id); !s.ok()) return s.error();
  if (Status s = fs_b_.SaveState(id); !s.ok()) {
    (void)fs_a_.DiscardState(id);
    return s.error();
  }
  if (incremental_) {
    // Epoch-tag the digest caches alongside the concrete snapshots so a
    // restore rolls them back instead of dropping them.
    inc_a_.SaveEpoch(id);
    inc_b_.SaveEpoch(id);
  }
  // The oracle's history must rewind with the tree it describes.
  if (crash_a_ != nullptr) crash_a_->Save(id);
  if (crash_b_ != nullptr) crash_b_->Save(id);
  // Log the snapshot into the trace: with save/restore recorded, the raw
  // trace is a faithful linear history and stays replayable across
  // backtracks (see Trace::Replay's ReplayPair overload).
  Operation op{.kind = OpKind::kCheckpoint, .offset = id};
  trace_.Append(op, OpOutcome{}, OpOutcome{}, /*violation=*/false);
  trace_.TrimToLast(options_.trace_cap);
  SampleSnapshotStats();
  return id;
}

Status SyscallEngine::RestoreConcrete(mc::SnapshotId id) {
  cached_hash_.reset();
  violation_.reset();
  if (incremental_) {
    // A miss (epoch unknown, or saved while invalid) invalidates, which
    // degrades to one full recompute — never to a stale digest.
    (void)inc_a_.RestoreEpoch(id);
    (void)inc_b_.RestoreEpoch(id);
  }
  if (Status s = fs_a_.RestoreState(id); !s.ok()) return s;
  if (Status s = fs_b_.RestoreState(id); !s.ok()) return s;
  if (crash_a_ != nullptr) {
    if (Status s = crash_a_->Restore(id); !s.ok()) return s;
  }
  if (crash_b_ != nullptr) {
    if (Status s = crash_b_->Restore(id); !s.ok()) return s;
  }
  Operation op{.kind = OpKind::kRestore, .offset = id};
  trace_.Append(op, OpOutcome{}, OpOutcome{}, /*violation=*/false);
  trace_.TrimToLast(options_.trace_cap);
  return Status::Ok();
}

Status SyscallEngine::DiscardConcrete(mc::SnapshotId id) {
  inc_a_.DiscardEpoch(id);
  inc_b_.DiscardEpoch(id);
  if (crash_a_ != nullptr) crash_a_->Discard(id);
  if (crash_b_ != nullptr) crash_b_->Discard(id);
  if (Status s = fs_a_.DiscardState(id); !s.ok()) return s;
  Status s = fs_b_.DiscardState(id);
  SampleSnapshotStats();
  return s;
}

std::uint64_t SyscallEngine::ConcreteStateBytes() const {
  return fs_a_.StateBytes() + fs_b_.StateBytes();
}

void SyscallEngine::SampleSnapshotStats() {
  const fs::SnapshotStats a = fs_a_.StateStats();
  const fs::SnapshotStats b = fs_b_.StateStats();
  counters_.snapshots_live = a.count + b.count;
  counters_.snapshots_peak =
      std::max(counters_.snapshots_peak, counters_.snapshots_live);
  counters_.snapshot_total_bytes = a.total_bytes + b.total_bytes;
  counters_.snapshot_shared_bytes = a.shared_bytes + b.shared_bytes;
  counters_.snapshot_exclusive_bytes = a.exclusive_bytes + b.exclusive_bytes;
}

Status SyscallEngine::CrashCheck() {
  if (!crash_enabled()) return Status::Ok();
  if (!crash_seed_status_.ok()) return crash_seed_status_;
  ++counters_.crash_checks;
  for (CrashConsistencyChecker* checker : {crash_a_.get(), crash_b_.get()}) {
    if (checker == nullptr) continue;
    Result<std::string> r = checker->Check();
    if (!r.ok()) return r.error();
    if (!r.value().empty() && !violation_.has_value()) {
      ++counters_.discrepancies;
      violation_ = r.value();
    }
  }
  counters_.crash_states_checked =
      (crash_a_ != nullptr ? crash_a_->states_checked() : 0) +
      (crash_b_ != nullptr ? crash_b_->states_checked() : 0);
  return Status::Ok();
}

void SyscallEngine::CrashObserveOp(const Operation& op,
                                   const OpOutcome& outcome_a,
                                   const OpOutcome& outcome_b) {
  // Replay path: an observation failure is swallowed rather than turned
  // into a verdict — a replay must never count an infrastructure error
  // as a reproduction, and a genuinely broken tree still surfaces
  // through the recovered-state validation in CrashCheckDetail.
  if (crash_a_ != nullptr) (void)crash_a_->ObserveOp(op, outcome_a);
  if (crash_b_ != nullptr) (void)crash_b_->ObserveOp(op, outcome_b);
}

std::string SyscallEngine::CrashCheckDetail() {
  for (CrashConsistencyChecker* checker : {crash_a_.get(), crash_b_.get()}) {
    if (checker == nullptr) continue;
    Result<std::string> r = checker->Check();
    if (r.ok() && !r.value().empty()) return r.value();
  }
  return {};
}

void SyscallEngine::CrashSaveState(std::uint64_t key) {
  if (crash_a_ != nullptr) crash_a_->Save(key);
  if (crash_b_ != nullptr) crash_b_->Save(key);
}

Status SyscallEngine::CrashRestoreState(std::uint64_t key) {
  if (crash_a_ != nullptr) {
    if (Status s = crash_a_->Restore(key); !s.ok()) return s;
  }
  if (crash_b_ != nullptr) {
    if (Status s = crash_b_->Restore(key); !s.ok()) return s;
  }
  return Status::Ok();
}

void SyscallEngine::CrashDiscardState(std::uint64_t key) {
  if (crash_a_ != nullptr) crash_a_->Discard(key);
  if (crash_b_ != nullptr) crash_b_->Discard(key);
}

}  // namespace mcfs::core
