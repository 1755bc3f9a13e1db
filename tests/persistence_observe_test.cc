// The persistence oracle observes each op by re-reading only the op's
// touched region (plus hard-link aliases) instead of the whole live tree.
// These tests run seeded op sequences against two oracles side by side —
// the touched-region one and a twin that re-walks the whole tree on every
// op — and require their state (histories, rename events, inodes) to be
// equal after every op. They also cover the full-walk fallback after an
// unobserved op, and the checker's recovered-image memo: verdicts are
// never memoized, and the memo is bounded.
#include <gtest/gtest.h>

#include <random>

#include "mcfs/fs_under_test.h"
#include "mcfs/persistence_oracle.h"
#include "mcfs/trace.h"

namespace mcfs::core {
namespace {

std::unique_ptr<FsUnderTest> MakeFut(FsKind kind, bool crashable = false) {
  FsUnderTestConfig config;
  config.kind = kind;
  config.strategy = StateStrategy::kVfsApi;
  config.block_cache_capacity = 0;  // fsync is the only device-write site
  config.crashable_device = crashable;
  auto fut = FsUnderTest::Create(config, nullptr);
  EXPECT_TRUE(fut.ok());
  return std::move(fut).value();
}

PersistenceOracleOptions OracleOptions(const FsUnderTest& fut,
                                       bool full_walk) {
  PersistenceOracleOptions options;
  options.exempt_paths = fut.SpecialPaths();
  options.observe_full_walk = full_walk;
  return options;
}

// The ops every sequence starts with, so each one reaches the cases the
// region rules single out, whatever the seed draws next.
std::vector<Operation> ScriptedOps(bool hard_links) {
  std::vector<Operation> ops = {
      {.kind = OpKind::kCreateFile, .path = "/f0", .mode = 0644},
      {.kind = OpKind::kWriteFile, .path = "/f0", .size = 100, .fill = 0x41},
      {.kind = OpKind::kMkdir, .path = "/d0", .mode = 0755},
      {.kind = OpKind::kCreateFile, .path = "/d0/f2", .mode = 0600},
      {.kind = OpKind::kMkdir, .path = "/d1", .mode = 0755},
      {.kind = OpKind::kFsync, .path = "/f0"},
      // Failed ops: rmdir of a file, mkdir over a file, rmdir of a
      // non-empty directory, create under a file.
      {.kind = OpKind::kRmdir, .path = "/f0"},
      {.kind = OpKind::kMkdir, .path = "/f0", .mode = 0755},
      {.kind = OpKind::kRmdir, .path = "/d0"},
      {.kind = OpKind::kCreateFile, .path = "/f0/x", .mode = 0644},
      // Rename over an existing file, then over an empty directory.
      {.kind = OpKind::kCreateFile, .path = "/f1", .mode = 0600},
      {.kind = OpKind::kWriteFile, .path = "/f1", .size = 3000, .fill = 0x5a},
      {.kind = OpKind::kRename, .path = "/f1", .path2 = "/f0"},
      {.kind = OpKind::kMkdir, .path = "/d0/d2", .mode = 0755},
      {.kind = OpKind::kRename, .path = "/d0", .path2 = "/d1"},
      {.kind = OpKind::kRmdir, .path = "/d1/d2"},
      {.kind = OpKind::kSymlink, .path = "/f0", .path2 = "/symlink0"},
  };
  if (hard_links) {
    // An in-place update through one name changes the other.
    ops.push_back(
        {.kind = OpKind::kLink, .path = "/f0", .path2 = "/hardlink0"});
    ops.push_back({.kind = OpKind::kWriteFile,
                   .path = "/hardlink0",
                   .offset = 100,
                   .size = 1,
                   .fill = 0x41});
    ops.push_back({.kind = OpKind::kChmod, .path = "/f0", .mode = 0600});
    ops.push_back(
        {.kind = OpKind::kTruncate, .path = "/hardlink0", .size = 50});
    ops.push_back({.kind = OpKind::kUnlink, .path = "/f0"});
  }
  return ops;
}

class TwinOracles {
 public:
  explicit TwinOracles(FsUnderTest& fut)
      : fut_(fut),
        touched_(OracleOptions(fut, /*full_walk=*/false)),
        full_(OracleOptions(fut, /*full_walk=*/true)) {
    EXPECT_TRUE(touched_.SeedFromTree(fut_.inner()).ok());
    EXPECT_TRUE(full_.SeedFromTree(fut_.inner()).ok());
  }

  // Runs one op on the live tree and feeds it to both oracles.
  void Apply(const Operation& op) {
    const OpOutcome outcome = ExecuteOp(fut_.vfs(), op);
    ASSERT_TRUE(touched_.ObserveOp(fut_.inner(), op, outcome).ok());
    ASSERT_TRUE(full_.ObserveOp(fut_.inner(), op, outcome).ok());
  }

  void Save(std::uint64_t key) {
    ASSERT_TRUE(fut_.SaveState(key).ok());
    touched_.Save(key);
    full_.Save(key);
  }
  void Restore(std::uint64_t key) {
    ASSERT_TRUE(fut_.RestoreState(key).ok());
    ASSERT_TRUE(touched_.Restore(key).ok());
    ASSERT_TRUE(full_.Restore(key).ok());
  }

  PersistenceOracle& touched() { return touched_; }
  PersistenceOracle& full() { return full_; }

 private:
  FsUnderTest& fut_;
  PersistenceOracle touched_;
  PersistenceOracle full_;
};

TEST(PersistenceObserveTest, TouchedRegionMatchesFullWalk) {
  ParameterPool pool = ParameterPool::Default();
  pool.include_fsync_ops = true;
  for (FsKind kind :
       {FsKind::kExt2, FsKind::kExt4, FsKind::kXfs, FsKind::kJffs2}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(FsKindName(kind)) + " seed " +
                   std::to_string(seed));
      auto fut = MakeFut(kind);
      const std::vector<fs::FsFeature> features = fut->SupportedFeatures();
      const bool hard_links =
          std::find(features.begin(), features.end(),
                    fs::FsFeature::kHardLink) != features.end();
      const std::vector<Operation> actions = pool.EnumerateAll(features);
      TwinOracles twins(*fut);

      std::vector<Operation> ops = ScriptedOps(hard_links);
      std::mt19937_64 rng(seed);
      for (int i = 0; i < 300; ++i) {
        ops.push_back(actions[rng() % actions.size()]);
      }

      std::vector<std::uint64_t> saved;
      std::uint64_t next_key = 1;
      for (std::size_t step = 0; step < ops.size(); ++step) {
        // Explorer-style snapshots: save every few ops, now and then
        // roll back to a random earlier one.
        if (step % 7 == 0) {
          saved.push_back(next_key);
          twins.Save(next_key++);
        }
        if (step % 23 == 22) twins.Restore(saved[rng() % saved.size()]);
        twins.Apply(ops[step]);
        ASSERT_EQ(twins.touched().DebugString(), twins.full().DebugString())
            << "after step " << step << ": " << ops[step].ToString();
      }
    }
  }
}

TEST(PersistenceObserveTest, ObserveAfterASkippedOpWalksTheWholeTree) {
  auto fut = MakeFut(FsKind::kExt2);
  TwinOracles twins(*fut);
  for (const Operation& op : ScriptedOps(/*hard_links=*/true)) twins.Apply(op);

  // An op the engine does not observe (it raised a violation), then an op
  // whose touched region does not reach what the first one changed.
  PersistenceOracle stale(OracleOptions(*fut, /*full_walk=*/false));
  ASSERT_TRUE(stale.SeedFromTree(fut->inner()).ok());
  const Operation skipped{.kind = OpKind::kCreateFile, .path = "/f1",
                          .mode = 0644};
  const Operation next{.kind = OpKind::kMkdir, .path = "/d0", .mode = 0755};
  ASSERT_EQ(ExecuteOp(fut->vfs(), skipped).error, Errno::kOk);
  twins.touched().Invalidate();
  const OpOutcome outcome = ExecuteOp(fut->vfs(), next);
  ASSERT_EQ(outcome.error, Errno::kOk);
  ASSERT_TRUE(twins.touched().ObserveOp(fut->inner(), next, outcome).ok());
  ASSERT_TRUE(twins.full().ObserveOp(fut->inner(), next, outcome).ok());
  ASSERT_TRUE(stale.ObserveOp(fut->inner(), next, outcome).ok());

  // The invalidated oracle walked the whole tree and saw /f1; one that
  // was not told about the skipped op only re-read /d0.
  EXPECT_EQ(twins.touched().DebugString(), twins.full().DebugString());
  EXPECT_NE(twins.touched().DebugString().find("\n/f1 "), std::string::npos);
  EXPECT_EQ(stale.DebugString().find("\n/f1 "), std::string::npos);

  // A later op goes back to the touched region, still in step.
  const Operation write{.kind = OpKind::kWriteFile, .path = "/f1",
                        .size = 10, .fill = 0x41};
  twins.Apply(write);
  EXPECT_EQ(twins.touched().DebugString(), twins.full().DebugString());
}

TEST(PersistenceObserveTest, DirtyNodeThatChangedKindTakesItsSubtree) {
  // The live tree changes behind the oracles' backs, then one op whose
  // touched region is the single node: a dirty node that turned from a
  // directory into a file (or back) is walked as a subtree, so its old
  // children go absent and its new ones are found.
  auto fut = MakeFut(FsKind::kExt2);
  TwinOracles twins(*fut);
  twins.Apply({.kind = OpKind::kMkdir, .path = "/d0", .mode = 0755});
  twins.Apply({.kind = OpKind::kCreateFile, .path = "/d0/f2", .mode = 0644});
  twins.Apply({.kind = OpKind::kCreateFile, .path = "/f0", .mode = 0644});
  ASSERT_EQ(twins.touched().DebugString(), twins.full().DebugString());

  fs::FileSystem& live = fut->inner();
  auto create = [&live](const std::string& path) {
    auto fh = live.Open(path, fs::kCreate | fs::kWrOnly, 0644);
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(live.Close(fh.value()).ok());
  };
  // Directory → file: /d0 loses its child.
  ASSERT_TRUE(live.Unlink("/d0/f2").ok());
  ASSERT_TRUE(live.Rmdir("/d0").ok());
  create("/d0");
  twins.Apply({.kind = OpKind::kChmod, .path = "/d0", .mode = 0600});
  EXPECT_EQ(twins.touched().DebugString(), twins.full().DebugString());
  // File → directory: /f0 gains one.
  ASSERT_TRUE(live.Unlink("/f0").ok());
  ASSERT_TRUE(live.Mkdir("/f0", 0755).ok());
  create("/f0/x");
  twins.Apply({.kind = OpKind::kChmod, .path = "/f0", .mode = 0700});
  EXPECT_EQ(twins.touched().DebugString(), twins.full().DebugString());

  // /d0/f2's last version is absent; /f0/x has a history.
  const std::string state = twins.touched().DebugString();
  const std::size_t f2 = state.find("\n/d0/f2 ");
  ASSERT_NE(f2, std::string::npos) << state;
  EXPECT_EQ(state.substr(state.find('\n', f2 + 1) - 2, 2), " -") << state;
  EXPECT_NE(state.find("\n/f0/x "), std::string::npos) << state;
}

// --- The checker's recovered-image memo -----------------------------------

TEST(CrashMemoTest, VerdictIsNotMemoized) {
  // A jffs2f whose mount skips log replay recovers every image as the bare
  // root, so whether a crash state is legal depends only on what the
  // oracle expects of it.
  FsUnderTestConfig config;
  config.kind = FsKind::kJffs2;
  config.strategy = StateStrategy::kVfsApi;
  config.crashable_device = true;
  config.bugs.jffs2_skip_log_replay = true;
  auto fut_or = FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(fut_or.ok());
  auto fut = std::move(fut_or).value();

  CrashCheckOptions options;
  options.enabled = true;
  CrashConsistencyChecker checker(fut.get(), options);
  ASSERT_TRUE(checker.SeedInitial().ok());

  auto run = [&](const Operation& op) {
    const OpOutcome outcome = ExecuteOp(fut->vfs(), op);
    ASSERT_EQ(outcome.error, Errno::kOk) << op.ToString();
    ASSERT_TRUE(checker.ObserveOp(op, outcome).ok());
  };

  // History 1: /f0 is on the device but un-synced, so recovering
  // without it is legal.
  run({.kind = OpKind::kCreateFile, .path = "/f0", .mode = 0644});
  auto verdict = checker.Check();
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value(), "");
  const std::uint64_t mounted = checker.states_mounted();
  EXPECT_GT(mounted, 0u);

  // History 2: the same file, now synced. Its one crash state is an
  // image the first check already mounted, yet losing /f0 is now a
  // violation.
  run({.kind = OpKind::kFsync, .path = "/f0"});
  verdict = checker.Check();
  ASSERT_TRUE(verdict.ok());
  EXPECT_NE(verdict.value().find("durable path /f0 missing"),
            std::string::npos)
      << verdict.value();
  EXPECT_EQ(checker.states_mounted(), mounted);
  EXPECT_GT(checker.states_checked(), mounted);
}

TEST(CrashMemoTest, OneImageTwoOracleStatesMountsOnce) {
  // ext2f with an uncached device: only fsync writes reach the device,
  // so after `create; fsync` every crash state is the synced image.
  auto fut = MakeFut(FsKind::kExt2, /*crashable=*/true);
  CrashCheckOptions options;
  options.enabled = true;
  CrashConsistencyChecker checker(fut.get(), options);
  ASSERT_TRUE(checker.SeedInitial().ok());
  checker.Save(1);  // the oracle before /f0 exists

  for (const Operation& op : {
           Operation{.kind = OpKind::kCreateFile, .path = "/f0", .mode = 0644},
           Operation{.kind = OpKind::kWriteFile, .path = "/f0", .size = 64,
                     .fill = 0x41},
           Operation{.kind = OpKind::kFsync, .path = "/f0"},
       }) {
    const OpOutcome outcome = ExecuteOp(fut->vfs(), op);
    ASSERT_EQ(outcome.error, Errno::kOk) << op.ToString();
    ASSERT_TRUE(checker.ObserveOp(op, outcome).ok());
  }
  const std::uint64_t before = checker.states_mounted();
  auto verdict = checker.Check();
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value(), "");
  EXPECT_EQ(checker.states_mounted(), before + 1);

  // The oracle rolled back to before the create: the same image now
  // holds a file the oracle never saw.
  ASSERT_TRUE(checker.Restore(1).ok());
  verdict = checker.Check();
  ASSERT_TRUE(verdict.ok());
  EXPECT_NE(verdict.value().find("phantom path /f0"), std::string::npos)
      << verdict.value();
  EXPECT_EQ(checker.states_mounted(), before + 1);
}

TEST(CrashMemoTest, BoundEvictsTheLeastRecentlyUsedImage) {
  auto fut = MakeFut(FsKind::kExt2, /*crashable=*/true);
  CrashCheckOptions options;
  options.enabled = true;
  CrashConsistencyChecker checker(fut.get(), options);
  ASSERT_TRUE(checker.SeedInitial().ok());

  auto run = [&](const Operation& op) {
    const OpOutcome outcome = ExecuteOp(fut->vfs(), op);
    ASSERT_EQ(outcome.error, Errno::kOk) << op.ToString();
    ASSERT_TRUE(checker.ObserveOp(op, outcome).ok());
  };
  auto check = [&]() {
    auto verdict = checker.Check();
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.value(), "");
  };
  auto restore = [&](std::uint64_t key) {
    ASSERT_TRUE(fut->RestoreState(key).ok());
    ASSERT_TRUE(checker.Restore(key).ok());
  };
  // One more synced byte of /f0 per call: a new image, and (with the
  // uncached device) the only crash state of the next check.
  std::uint64_t length = 0;
  auto next_image = [&]() {
    run({.kind = OpKind::kWriteFile, .path = "/f0", .offset = length++,
         .size = 1, .fill = 0x41});
    run({.kind = OpKind::kFsync, .path = "/f0"});
    check();
  };

  run({.kind = OpKind::kCreateFile, .path = "/f0", .mode = 0644});
  const std::size_t bound = CrashConsistencyChecker::kMemoEntries;
  for (std::uint64_t key = 1; key <= bound; ++key) {
    next_image();
    ASSERT_TRUE(fut->SaveState(key).ok());
    checker.Save(key);
  }
  EXPECT_EQ(checker.states_mounted(), bound);

  // The memo is full. Using image 1 again makes image 2 the oldest.
  restore(1);
  check();
  EXPECT_EQ(checker.states_mounted(), bound);
  restore(bound);
  next_image();  // evicts image 2
  EXPECT_EQ(checker.states_mounted(), bound + 1);

  restore(1);
  check();
  EXPECT_EQ(checker.states_mounted(), bound + 1);  // still remembered
  restore(2);
  check();
  EXPECT_EQ(checker.states_mounted(), bound + 2);  // evicted: mounted again
  EXPECT_EQ(checker.states_checked(), bound + 4);
}

TEST(CrashMemoTest, MountFailureHitReportsTheSameText) {
  auto fut = MakeFut(FsKind::kExt2, /*crashable=*/true);
  CrashCheckOptions options;
  options.enabled = true;
  CrashConsistencyChecker checker(fut.get(), options);
  ASSERT_TRUE(checker.SeedInitial().ok());

  // Zero the start of the device and make it durable: every crash state
  // is now an image no probe can mount.
  storage::CrashableDisk* disk = fut->crash_disk();
  ASSERT_NE(disk, nullptr);
  ASSERT_TRUE(disk->Write(0, Bytes(8192, 0)).ok());
  ASSERT_TRUE(disk->Flush().ok());

  auto first = checker.Check();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().rfind("crash: recovered mount failed on ", 0), 0u)
      << first.value();
  EXPECT_EQ(checker.states_mounted(), 1u);

  auto second = checker.Check();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(checker.states_mounted(), 1u);
  EXPECT_EQ(checker.states_checked(), 2u);
}

}  // namespace
}  // namespace mcfs::core
