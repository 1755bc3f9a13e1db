#include "mcfs/syscall_engine.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

#include "fs/path.h"
#include "mcfs/equalize.h"

namespace mcfs::core {

namespace {

// Features supported by EVERY member, in member 0's order.
std::vector<fs::FsFeature> CommonFeatures(
    const std::vector<FsUnderTest*>& filesystems) {
  std::vector<fs::FsFeature> common = filesystems.front()->SupportedFeatures();
  for (std::size_t i = 1; i < filesystems.size(); ++i) {
    const auto features = filesystems[i]->SupportedFeatures();
    std::erase_if(common, [&features](fs::FsFeature f) {
      return std::find(features.begin(), features.end(), f) ==
             features.end();
    });
  }
  return common;
}

// A vote's grouping before any text is attached.
struct Election {
  VoteResult vote;                  // detail left empty
  std::size_t reference_size = 0;   // 0 in a tie
  std::size_t largest_size = 0;
};

// Groups the n members into classes of `same` (first-come numbering)
// and elects the reference group: the oracle's group when `oracle`
// names a member, else the largest group — unless two or more groups
// tie for largest, in which case nobody is a suspect.
template <typename Same>
Election Elect(std::size_t n, Same same, std::optional<std::size_t> oracle) {
  Election e;
  std::vector<int> group(n, -1);
  std::vector<std::size_t> group_size;
  for (std::size_t i = 0; i < n; ++i) {
    if (group[i] != -1) continue;
    const int id = static_cast<int>(group_size.size());
    group[i] = id;
    group_size.push_back(1);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (group[j] == -1 && same(i, j)) {
        group[j] = id;
        ++group_size[id];
      }
    }
  }
  const auto largest = std::max_element(group_size.begin(), group_size.end());
  e.largest_size = *largest;
  int reference = static_cast<int>(largest - group_size.begin());
  VoteResult& result = e.vote;
  result.unanimous = group_size.size() == 1;
  if (oracle.has_value() && *oracle < n) {
    // Absolute correctness is not a popularity contest.
    reference = group[*oracle];
    result.oracle_overruled_majority = group_size[reference] < *largest;
  } else if (std::count(group_size.begin(), group_size.end(), *largest) > 1) {
    reference = -1;  // a tie: no reference group, no suspects
  }
  e.reference_size = reference < 0 ? 0 : group_size[reference];
  result.group_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.group_of[i] = group[i] == reference ? 0 : group[i] + 1;
    if (reference >= 0 && group[i] != reference) result.minority.push_back(i);
  }
  return e;
}

// First member whose group differs from member 0's.
std::size_t FirstDissenter(const VoteResult& vote) {
  std::size_t i = 1;
  while (vote.group_of[i] == vote.group_of[0]) ++i;
  return i;
}

}  // namespace

SyscallEngine::SyscallEngine(std::vector<FsUnderTest*> filesystems,
                             EngineOptions options)
    : fs_(std::move(filesystems)),
      options_(std::move(options)),
      suspicion_(fs_.size(), 0),
      oracle_disagreements_(fs_.size(), 0),
      inc_(fs_.size()),
      outcomes_(fs_.size()),
      touched_(fs_.size()),
      hashes_(fs_.size()) {
  assert(fs_.size() >= 2);
  if (options_.oracle_index.has_value() &&
      *options_.oracle_index >= fs_.size()) {
    options_.oracle_index.reset();  // out of range: plain voting
  }
  // Extend the exception lists with FS-created special paths (§3.4) and
  // the free-space fill file.
  auto add_special = [this](const std::string& path) {
    options_.abstraction.exception_list.push_back(path);
    options_.checker.special_names.push_back(fs::Basename(path));
  };
  for (FsUnderTest* fut : fs_) {
    for (const auto& path : fut->SpecialPaths()) add_special(path);
  }
  add_special(kFillFilePath);
  options_.abstraction.ignore_directory_sizes =
      options_.checker.ignore_directory_sizes;

  // The incremental cache assumes restores reproduce the saved logical
  // state; kMountOnce breaks that on purpose (§3.2), so it always runs
  // the full walk — that is how its corruption gets observed.
  incremental_ = options_.abstraction.incremental &&
                 std::none_of(fs_.begin(), fs_.end(), [](FsUnderTest* fut) {
                   return fut->config().strategy == StateStrategy::kMountOnce;
                 });

  actions_ = options_.pool.EnumerateAll(CommonFeatures(fs_));
  ComputeStaticFootprints();

  // Crash-exploration checkers, one per member with a recording device.
  // The oracle ignores the same noise paths the abstraction does.
  crash_.resize(fs_.size());
  if (options_.crash.enabled) {
    for (std::size_t i = 0; i < fs_.size(); ++i) {
      FsUnderTest* fut = fs_[i];
      if (fut->crash_disk() == nullptr) continue;
      CrashCheckOptions member = options_.crash;
      for (const auto& path : fut->SpecialPaths()) {
        member.oracle.exempt_paths.push_back(path);
      }
      member.oracle.exempt_paths.push_back(std::string(kFillFilePath));
      crash_[i] =
          std::make_unique<CrashConsistencyChecker>(fut, std::move(member));
      if (Status s = crash_[i]->SeedInitial();
          !s.ok() && crash_seed_status_.ok()) {
        crash_seed_status_ = s;
      }
    }
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

Result<Md5Digest> SyscallEngine::MemberDigest(std::size_t member,
                                              const TouchedPathSet* touched) {
  vfs::Vfs& v = fs_[member]->vfs();
  if (!incremental_) {
    ++counters_.abstraction_full_recomputes;
    return ComputeAbstractState(v, options_.abstraction);
  }
  IncrementalAbstraction& inc = inc_[member];
  return touched != nullptr ? inc.Refresh(v, options_.abstraction, *touched)
                            : inc.Current(v, options_.abstraction);
}

void SyscallEngine::SyncAbstractionCounters() {
  if (!incremental_) return;
  counters_.abstraction_full_recomputes = 0;
  counters_.abstraction_incremental_refreshes = 0;
  counters_.abstraction_nodes_rehashed = 0;
  counters_.abstraction_blocks_hashed = 0;
  counters_.abstraction_blocks_reused = 0;
  for (const IncrementalAbstraction& inc : inc_) {
    counters_.abstraction_full_recomputes += inc.full_recomputes();
    counters_.abstraction_incremental_refreshes +=
        inc.incremental_refreshes();
    counters_.abstraction_nodes_rehashed += inc.nodes_rehashed();
    counters_.abstraction_blocks_hashed += inc.blocks_hashed();
    counters_.abstraction_blocks_reused += inc.blocks_reused();
  }
}

Status SyscallEngine::RefreshAbstractState(bool check_equality,
                                           bool touched) {
  // Valid incremental caches answer from memory with no walk at all — in
  // that case the file systems need not even be mounted (DFS restores
  // hit this constantly).
  const bool from_cache =
      incremental_ && !touched &&
      std::all_of(inc_.begin(), inc_.end(),
                  [](const auto& inc) { return inc.valid(); });
  if (!from_cache) {
    // The walk needs mounted file systems; remount-per-op strategies may
    // have them unmounted at this point.
    for (FsUnderTest* fut : fs_) {
      if (Status s = fut->EnsureMounted(); !s.ok()) return s;
    }
  }

  std::optional<std::size_t> failed;
  Errno failure = Errno::kOk;
  for (std::size_t i = 0; i < fs_.size(); ++i) {
    auto hash = MemberDigest(i, touched ? &touched_[i] : nullptr);
    if (hash.ok()) {
      hashes_[i] = hash.value();
    } else if (!failed.has_value()) {
      failed = i;
      failure = hash.error();
    }
  }
  SyncAbstractionCounters();
  if (failed.has_value()) {
    // The walk itself failed: a §3.2-style corrupted file system (e.g.
    // dangling dcache entries after an unsynchronized restore).
    ++counters_.corruption_events;
    violation_ = std::string("file system corruption detected: "
                             "abstraction walk failed on ") +
                 fs_[*failed]->name() + " with " +
                 std::string(ErrnoName(failure));
    return Status::Ok();  // reported as violation, not infrastructure error
  }

  // Paranoid mode (verify_every_n): an incremental digest disagreeing
  // with its own from-scratch recompute is an infrastructure bug in the
  // cache, not a file-system discrepancy — surface it loudly.
  if (incremental_) {
    for (std::size_t i = 0; i < fs_.size(); ++i) {
      if (inc_[i].divergence().has_value()) {
        ++counters_.corruption_events;
        violation_ = "incremental abstraction divergence on " +
                     fs_[i]->name() + ": " + *inc_[i].divergence();
        return Status::Ok();
      }
    }
  }

  if (check_equality && options_.compare_states &&
      std::any_of(hashes_.begin(), hashes_.end(),
                  [this](const Md5Digest& h) { return h != hashes_[0]; })) {
    ++counters_.discrepancies;
    violation_ = StateVerdict();
  }

  // Combined digest = hash(h0 || ... || hN-1): the visited-state identity
  // of the *panel*, which is what exploration dedupes on.
  Md5 combined;
  for (const Md5Digest& hash : hashes_) {
    combined.Update(ByteView(hash.bytes.data(), 16));
  }
  // Crash mode: two logically identical states with different in-flight
  // write sets reach different crash states, so the journals join the
  // visited identity — otherwise dedup would skip schedules whose only
  // difference is what a crash can tear.
  for (std::size_t i = 0; i < fs_.size(); ++i) {
    if (crash_[i] != nullptr) {
      combined.UpdateU64(fs_[i]->crash_disk()->StateDigest());
    }
  }
  cached_hash_ = combined.Final();
  return Status::Ok();
}

VoteResult SyscallEngine::Vote(const Operation& op,
                               const std::vector<OpOutcome>& outcomes,
                               const CheckerOptions& options,
                               std::optional<std::size_t> oracle) {
  // Group outcomes by pairwise equivalence (CompareOutcomes is the
  // checker's notion of "same behaviour").
  const std::size_t n = outcomes.size();
  Election e = Elect(
      n,
      [&](std::size_t i, std::size_t j) {
        return CompareOutcomes(op, outcomes[i], outcomes[j], options).ok;
      },
      oracle);
  VoteResult& result = e.vote;
  if (result.unanimous) return result;
  if (e.reference_size == 0) {
    result.detail = CompareOutcomes(op, outcomes[0],
                                    outcomes[FirstDissenter(result)], options)
                        .detail;
    return result;
  }

  std::ostringstream detail;
  if (result.oracle_overruled_majority) {
    detail << op.ToString() << ": spec says majority is wrong (oracle "
           << e.reference_size << "/" << n << " vs majority "
           << e.largest_size << "/" << n << "); implicated:";
  } else {
    detail << op.ToString() << ": " << e.reference_size << "/" << n
           << " agree; outvoted:";
  }
  for (std::size_t i : result.minority) {
    detail << " #" << i << "(" << ErrnoName(outcomes[i].error) << ")";
  }
  result.detail = detail.str();
  return result;
}

void SyscallEngine::Suspect(const std::vector<std::size_t>& members) {
  for (std::size_t i : members) {
    ++suspicion_[i];
    if (options_.oracle_index.has_value()) ++oracle_disagreements_[i];
  }
}

std::string SyscallEngine::OutcomeVerdict(const Operation& op) {
  const VoteResult vote =
      Vote(op, outcomes_, options_.checker, options_.oracle_index);
  if (vote.minority.empty()) {
    return vote.detail + " (" + fs_[0]->name() + " vs " +
           fs_[FirstDissenter(vote)]->name() + ")";
  }
  Suspect(vote.minority);
  std::string text = vote.detail + " — suspects:";
  for (std::size_t i : vote.minority) text += " " + fs_[i]->name();
  return text;
}

std::string SyscallEngine::StateVerdict() {
  const std::size_t n = hashes_.size();
  const Election e = Elect(
      n,
      [this](std::size_t i, std::size_t j) { return hashes_[i] == hashes_[j]; },
      options_.oracle_index);
  if (e.reference_size == 0) {
    const std::size_t other = FirstDissenter(e.vote);
    return "state divergence: abstract states differ (" + fs_[0]->name() +
           "=" + hashes_[0].ToHex() + ", " + fs_[other]->name() + "=" +
           hashes_[other].ToHex() + ")";
  }
  std::ostringstream detail;
  if (e.vote.oracle_overruled_majority) {
    detail << "state divergence — spec says majority is wrong (oracle "
           << e.reference_size << "/" << n << " vs majority "
           << e.largest_size << "/" << n << "); deviating:";
  } else {
    detail << "state divergence ("
           << (options_.oracle_index ? "oracle " : "majority ")
           << e.reference_size << "/" << n << "); deviating:";
  }
  for (std::size_t i : e.vote.minority) detail << " " << fs_[i]->name();
  Suspect(e.vote.minority);
  return detail.str();
}

Status SyscallEngine::ApplyAction(std::size_t action) {
  if (action >= actions_.size()) return Errno::kEINVAL;
  const Operation& op = actions_[action];
  violation_.reset();
  cached_hash_.reset();

  for (std::size_t i = 0; i < fs_.size(); ++i) {
    if (Status s = fs_[i]->BeginOp(); !s.ok()) {
      ++counters_.corruption_events;
      // BeginOp on the earlier members may have remounted after the op.
      for (std::size_t j = 0; j < i; ++j) {
        inc_[j].Invalidate();
        if (crash_[j] != nullptr) crash_[j]->Invalidate();
      }
      violation_ = "remount failed on " + fs_[i]->name() + ": " +
                   std::string(ErrnoName(s.error()));
      return Status::Ok();
    }
  }

  for (std::size_t i = 0; i < fs_.size(); ++i) {
    outcomes_[i] = ExecuteOp(fs_[i]->vfs(), op);
  }
  ++counters_.ops_executed;
  for (const OpOutcome& outcome : outcomes_) {
    coverage_.Record(op.kind, outcome.error);
  }

  // Every member agreeing with member 0 is exactly a one-group vote; only
  // a disagreement pays for the full grouping.
  for (std::size_t i = 1; i < fs_.size(); ++i) {
    if (!CompareOutcomes(op, outcomes_[0], outcomes_[i], options_.checker)
             .ok) {
      ++counters_.discrepancies;
      violation_ = OutcomeVerdict(op);
      break;
    }
  }

  // Full-state integrity check + abstract hash for visited matching.
  bool observed = false;
  if (!violation_.has_value()) {
    for (std::size_t i = 0; i < fs_.size(); ++i) {
      touched_[i] = TouchedPaths(op, outcomes_[i]);
    }
    if (Status s = RefreshAbstractState(/*check_equality=*/true,
                                        /*touched=*/true);
        !s.ok()) {
      return s;
    }
    // Feed the persistence oracles while the file systems are mounted.
    if (!violation_.has_value()) {
      for (std::size_t i = 0; i < fs_.size(); ++i) {
        if (crash_[i] == nullptr) continue;
        if (Status s = crash_[i]->ObserveOp(op, outcomes_[i]); !s.ok()) {
          return s;
        }
      }
      observed = true;
    }
  } else {
    // The operation ran but its effects were never folded into the
    // caches; if exploration continues past this violation
    // (ClearViolation), the next digest must come from a fresh walk.
    for (IncrementalAbstraction& inc : inc_) inc.Invalidate();
  }
  if (!observed) {
    // Likewise the persistence oracles: they only re-read what an op
    // touches, so the next observe must walk the whole tree.
    for (const auto& checker : crash_) {
      if (checker != nullptr) checker->Invalidate();
    }
  }

  trace_.Append(op, outcomes_[0], outcomes_[1], violation_.has_value());
  trace_.TrimToLast(options_.trace_cap);
  // Free this operation's payloads here, where locals would die: held
  // until the next operation they perturb how the allocator reuses the
  // device-image chunks (perfbench kernel-remount set-up ran ~28% slower).
  for (OpOutcome& outcome : outcomes_) outcome = OpOutcome{};
  for (TouchedPathSet& touched : touched_) touched = TouchedPathSet{};

  for (FsUnderTest* fut : fs_) {
    if (Status s = fut->EndOp(); !s.ok()) return s;
  }
  return Status::Ok();
}

Md5Digest SyscallEngine::AbstractHash() {
  if (!cached_hash_.has_value()) {
    if (Status s = RefreshAbstractState(/*check_equality=*/false,
                                        /*touched=*/false);
        !s.ok() || !cached_hash_.has_value()) {
      // Infrastructure failure: return a sentinel digest; the explorer
      // will already have surfaced the violation.
      return Md5Digest{};
    }
    for (FsUnderTest* fut : fs_) (void)fut->EndOp();
  }
  return *cached_hash_;
}

Result<mc::SnapshotId> SyscallEngine::SaveConcrete() {
  const mc::SnapshotId id = next_snapshot_++;
  for (std::size_t i = 0; i < fs_.size(); ++i) {
    if (Status s = fs_[i]->SaveState(id); !s.ok()) {
      for (std::size_t j = 0; j < i; ++j) (void)fs_[j]->DiscardState(id);
      return s.error();
    }
  }
  if (incremental_) {
    // Epoch-tag the digest caches alongside the concrete snapshots so a
    // restore rolls them back instead of dropping them.
    for (IncrementalAbstraction& inc : inc_) inc.SaveEpoch(id);
  }
  // The oracle's history must rewind with the tree it describes.
  CrashSaveState(id);
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
    for (IncrementalAbstraction& inc : inc_) (void)inc.RestoreEpoch(id);
  }
  for (FsUnderTest* fut : fs_) {
    if (Status s = fut->RestoreState(id); !s.ok()) return s;
  }
  if (Status s = CrashRestoreState(id); !s.ok()) return s;
  Operation op{.kind = OpKind::kRestore, .offset = id};
  trace_.Append(op, OpOutcome{}, OpOutcome{}, /*violation=*/false);
  trace_.TrimToLast(options_.trace_cap);
  return Status::Ok();
}

Status SyscallEngine::DiscardConcrete(mc::SnapshotId id) {
  for (IncrementalAbstraction& inc : inc_) inc.DiscardEpoch(id);
  CrashDiscardState(id);
  // Every member drops its snapshot even when an earlier one fails, so
  // one bad handle cannot leak the rest of the panel's pool entries.
  Status first = Status::Ok();
  for (FsUnderTest* fut : fs_) {
    if (Status s = fut->DiscardState(id); !s.ok() && first.ok()) first = s;
  }
  SampleSnapshotStats();
  return first;
}

std::uint64_t SyscallEngine::ConcreteStateBytes() const {
  std::uint64_t total = 0;
  for (const FsUnderTest* fut : fs_) total += fut->StateBytes();
  return total;
}

void SyscallEngine::SampleSnapshotStats() {
  fs::SnapshotStats sum;
  for (const FsUnderTest* fut : fs_) {
    const fs::SnapshotStats s = fut->StateStats();
    sum.count += s.count;
    sum.total_bytes += s.total_bytes;
    sum.shared_bytes += s.shared_bytes;
    sum.exclusive_bytes += s.exclusive_bytes;
  }
  counters_.snapshots_live = sum.count;
  counters_.snapshots_peak =
      std::max(counters_.snapshots_peak, counters_.snapshots_live);
  counters_.snapshot_total_bytes = sum.total_bytes;
  counters_.snapshot_shared_bytes = sum.shared_bytes;
  counters_.snapshot_exclusive_bytes = sum.exclusive_bytes;
}

bool SyscallEngine::crash_enabled() const {
  return std::any_of(crash_.begin(), crash_.end(),
                     [](const auto& checker) { return checker != nullptr; });
}

Status SyscallEngine::CrashCheck() {
  if (!crash_enabled()) return Status::Ok();
  if (!crash_seed_status_.ok()) return crash_seed_status_;
  ++counters_.crash_checks;
  std::uint64_t states_checked = 0;
  std::uint64_t states_mounted = 0;
  for (const auto& checker : crash_) {
    if (checker == nullptr) continue;
    Result<std::string> r = checker->Check();
    if (!r.ok()) return r.error();
    if (!r.value().empty() && !violation_.has_value()) {
      ++counters_.discrepancies;
      violation_ = r.value();
    }
    states_checked += checker->states_checked();
    states_mounted += checker->states_mounted();
  }
  counters_.crash_states_checked = states_checked;
  counters_.crash_states_mounted = states_mounted;
  return Status::Ok();
}

void SyscallEngine::CrashObserveOp(const Operation& op,
                                   const OpOutcome& outcome_a,
                                   const OpOutcome& outcome_b) {
  // Replay path: an observation failure is swallowed rather than turned
  // into a verdict — a replay must never count an infrastructure error
  // as a reproduction, and a genuinely broken tree still surfaces
  // through the recovered-state validation in CrashCheckDetail.
  if (crash_[0] != nullptr) (void)crash_[0]->ObserveOp(op, outcome_a);
  if (crash_[1] != nullptr) (void)crash_[1]->ObserveOp(op, outcome_b);
}

std::string SyscallEngine::CrashCheckDetail() {
  for (const auto& checker : crash_) {
    if (checker == nullptr) continue;
    Result<std::string> r = checker->Check();
    if (r.ok() && !r.value().empty()) return r.value();
  }
  return {};
}

void SyscallEngine::CrashSaveState(std::uint64_t key) {
  for (const auto& checker : crash_) {
    if (checker != nullptr) checker->Save(key);
  }
}

Status SyscallEngine::CrashRestoreState(std::uint64_t key) {
  for (const auto& checker : crash_) {
    if (checker == nullptr) continue;
    if (Status s = checker->Restore(key); !s.ok()) return s;
  }
  return Status::Ok();
}

void SyscallEngine::CrashDiscardState(std::uint64_t key) {
  for (const auto& checker : crash_) {
    if (checker != nullptr) checker->Discard(key);
  }
}

}  // namespace mcfs::core
