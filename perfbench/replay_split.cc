#include "replay_split.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

namespace perfbench {

namespace {

using mcfs::Errno;
using mcfs::Md5Digest;
using mcfs::Result;
using mcfs::Status;
using mcfs::core::FsUnderTest;
using mcfs::core::IncrementalAbstraction;
using mcfs::core::Mcfs;
using mcfs::core::McfsConfig;
using mcfs::core::OpKind;
using mcfs::core::OpOutcome;
using mcfs::core::Trace;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t CrashDigest(FsUnderTest& fut) {
  return fut.crash_disk() != nullptr ? fut.crash_disk()->StateDigest() : 0;
}

}  // namespace

Result<FinalDigests> ComputeFinalDigests(Mcfs& mcfs) {
  const auto& options = mcfs.engine().options().abstraction;
  FinalDigests out;
  for (FsUnderTest* fut : {&mcfs.fs_a(), &mcfs.fs_b()}) {
    if (Status s = fut->EnsureMounted(); !s.ok()) return s.error();
    auto digest = mcfs::core::ComputeAbstractState(fut->vfs(), options);
    if (!digest.ok()) return digest.error();
    (fut == &mcfs.fs_a() ? out.a : out.b) = digest.value();
  }
  out.crash_a = CrashDigest(mcfs.fs_a());
  out.crash_b = CrashDigest(mcfs.fs_b());
  return out;
}

Result<ReplaySplit> RunReplaySplit(const McfsConfig& config,
                                   const Trace& trace) {
  auto made = Mcfs::Create(config);
  if (!made.ok()) return made.error();
  Mcfs& mcfs = *made.value();
  mcfs::core::SyscallEngine& engine = mcfs.engine();
  const mcfs::core::EngineOptions& options = engine.options();
  FsUnderTest& fs_a = mcfs.fs_a();
  FsUnderTest& fs_b = mcfs.fs_b();
  const bool incremental = engine.incremental_abstraction();
  const bool crash = engine.crash_enabled();
  IncrementalAbstraction inc_a;
  IncrementalAbstraction inc_b;

  ReplaySplit split;
  std::vector<std::uint64_t> stack;  // live snapshot keys, DFS order

  auto check = [&split](Status s) {
    if (!s.ok()) ++split.infra_errors;
  };
  auto discard = [&](std::uint64_t key) {
    inc_a.DiscardEpoch(key);
    inc_b.DiscardEpoch(key);
    engine.CrashDiscardState(key);
    check(fs_a.DiscardState(key));
    check(fs_b.DiscardState(key));
    split.discard_order.push_back(key);
  };
  auto side_digest = [&](FsUnderTest& fut, IncrementalAbstraction& inc,
                         const OpOutcome& outcome,
                         const mcfs::core::Operation& op) {
    if (!incremental) {
      return mcfs::core::ComputeAbstractState(fut.vfs(), options.abstraction);
    }
    return inc.Refresh(fut.vfs(), options.abstraction,
                       mcfs::core::TouchedPaths(op, outcome));
  };

  // A from-scratch digest in the engine's mode: the incremental fold or
  // the full walk, which are different digests of one tree.
  auto fresh_digest = [&](FsUnderTest& fut, IncrementalAbstraction& inc) {
    return incremental
               ? inc.Current(fut.vfs(), options.abstraction)
               : mcfs::core::ComputeAbstractState(fut.vfs(),
                                                  options.abstraction);
  };

  // The explorer hashes the root before its first checkpoint, so the
  // root epoch is saved with a warm cache. Do the same: reads can touch
  // the device, so skipping this walk could change what a crash
  // recorder sees.
  for (FsUnderTest* fut : {&fs_a, &fs_b}) {
    check(fut->EnsureMounted());
    if (!fresh_digest(*fut, fut == &fs_a ? inc_a : inc_b).ok()) {
      ++split.infra_errors;
    }
    check(fut->EndOp());
  }

  // The last refreshed digests, while no restore has replaced the tree
  // they describe.
  std::optional<std::pair<Md5Digest, Md5Digest>> last;
  for (const Trace::Record& rec : trace.records()) {
    const std::uint64_t key = rec.op.offset;
    if (rec.op.kind == OpKind::kCheckpoint) {
      ++split.checkpoints;
      check(fs_a.SaveState(key));
      check(fs_b.SaveState(key));
      if (incremental) {
        inc_a.SaveEpoch(key);
        inc_b.SaveEpoch(key);
      }
      engine.CrashSaveState(key);
      stack.push_back(key);
      continue;
    }
    if (rec.op.kind == OpKind::kRestore) {
      ++split.restores;
      const auto target = std::find(stack.begin(), stack.end(), key);
      if (target == stack.end()) return Errno::kENOENT;
      while (stack.back() != key) {
        discard(stack.back());
        stack.pop_back();
      }
      if (incremental) {
        (void)inc_a.RestoreEpoch(key);
        (void)inc_b.RestoreEpoch(key);
      }
      check(fs_a.RestoreState(key));
      check(fs_b.RestoreState(key));
      check(engine.CrashRestoreState(key));
      last.reset();
      continue;
    }

    ++split.operations;
    const std::int64_t t0 = NowNs();
    check(fs_a.BeginOp());
    check(fs_b.BeginOp());
    const std::int64_t t1 = NowNs();
    const OpOutcome outcome_a = mcfs::core::ExecuteOp(fs_a.vfs(), rec.op);
    const OpOutcome outcome_b = mcfs::core::ExecuteOp(fs_b.vfs(), rec.op);
    const std::int64_t t2 = NowNs();
    const bool outcomes_agree =
        mcfs::core::CompareOutcomes(rec.op, outcome_a, outcome_b,
                                    options.checker)
            .ok;
    const std::int64_t t3 = NowNs();
    auto digest_a = side_digest(fs_a, inc_a, outcome_a, rec.op);
    auto digest_b = side_digest(fs_b, inc_b, outcome_b, rec.op);
    if (crash) {
      // The engine folds the crash recorders into the visited identity.
      (void)CrashDigest(fs_a);
      (void)CrashDigest(fs_b);
    }
    const std::int64_t t4 = NowNs();
    if (crash) engine.CrashObserveOp(rec.op, outcome_a, outcome_b);
    const std::int64_t t5 = NowNs();
    check(fs_a.EndOp());
    check(fs_b.EndOp());
    const std::int64_t t6 = NowNs();

    split.mount_ns += (t1 - t0) + (t6 - t5);
    split.op_ns += t2 - t1;
    split.compare_ns += t3 - t2;
    split.refresh_ns += t4 - t3;
    split.observe_ns += t5 - t4;
    if (outcome_a.error != rec.error_a || outcome_b.error != rec.error_b) {
      ++split.outcome_mismatches;
    }
    if (!digest_a.ok() || !digest_b.ok()) {
      ++split.infra_errors;
      continue;
    }
    if (!outcomes_agree || digest_a.value() != digest_b.value()) {
      ++split.violations;
    }
    last.emplace(digest_a.value(), digest_b.value());
  }

  for (const std::uint64_t key : stack) discard(key);

  auto final_digests = ComputeFinalDigests(mcfs);
  if (!final_digests.ok()) return final_digests.error();
  split.final_digests = final_digests.value();
  if (last.has_value()) {
    IncrementalAbstraction scratch_a;
    IncrementalAbstraction scratch_b;
    auto a = fresh_digest(fs_a, scratch_a);
    auto b = fresh_digest(fs_b, scratch_b);
    split.last_digests_consistent = a.ok() && b.ok() &&
                                   a.value() == last->first &&
                                   b.value() == last->second;
  }
  return split;
}

}  // namespace perfbench
