// Differential suite for the incremental abstraction (DESIGN.md §7.4):
// after every operation the dirty-set refresh must produce exactly the
// digest a from-scratch recompute produces — across file systems, across
// random operation sequences, across checkpoint/restore round trips, and
// at the engine level with bit-identical exploration statistics.
//
// Runs under `ctest -L abstraction`.
#include <gtest/gtest.h>

#include <random>

#include "fs/ext2/ext2fs.h"
#include "fs/xfs/xfsfs.h"
#include "mc/explorer.h"
#include "mcfs/abstraction.h"
#include "mcfs/syscall_engine.h"
#include "mcfs/trace.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::core {
namespace {

struct Stack {
  std::shared_ptr<storage::RamDisk> disk;  // kernel file systems only
  fs::FileSystemPtr filesystem;
  std::unique_ptr<vfs::Vfs> v;
};

Stack MakeStack(const std::string& kind) {
  Stack stack;
  if (kind == "ext2") {
    stack.disk =
        std::make_shared<storage::RamDisk>("d", 512 * 1024, nullptr);
    stack.filesystem = std::make_shared<fs::Ext2Fs>(stack.disk);
  } else if (kind == "xfs") {
    stack.disk =
        std::make_shared<storage::RamDisk>("x", 16 * 1024 * 1024, nullptr);
    stack.filesystem = std::make_shared<fs::XfsFs>(stack.disk);
  } else if (kind == "verifs1") {
    stack.filesystem = std::make_shared<verifs::Verifs1>();
  } else {
    stack.filesystem = std::make_shared<verifs::Verifs2>();
  }
  stack.v = std::make_unique<vfs::Vfs>(stack.filesystem, nullptr);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.v->Mount().ok());
  return stack;
}

std::vector<fs::FsFeature> FeaturesOf(const fs::FileSystem& filesystem) {
  std::vector<fs::FsFeature> features;
  for (fs::FsFeature f :
       {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
        fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
        fs::FsFeature::kXattr}) {
    if (filesystem.Supports(f)) features.push_back(f);
  }
  return features;
}

// The digest a cold cache would produce for the current tree.
Md5Digest OracleFold(vfs::Vfs& v, const AbstractionOptions& options) {
  IncrementalAbstraction oracle;
  auto digest = oracle.FullRecompute(v, options);
  EXPECT_TRUE(digest.ok());
  return digest.value_or(Md5Digest{});
}

void Write(vfs::Vfs& v, const std::string& path, std::string_view data) {
  auto fd = v.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
}

// Drives `steps` pool-drawn operations against one file system, checking
// after every single one that the incremental refresh equals a scratch
// recompute. Zero divergences is the whole contract.
void RunDifferential(const std::string& kind, std::uint32_t seed,
                     int steps) {
  Stack stack = MakeStack(kind);
  const std::vector<Operation> actions =
      ParameterPool::Default().EnumerateAll(FeaturesOf(*stack.filesystem));
  ASSERT_FALSE(actions.empty());

  AbstractionOptions options;
  IncrementalAbstraction inc;
  ASSERT_TRUE(inc.FullRecompute(*stack.v, options).ok());

  std::mt19937 rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Operation& op = actions[rng() % actions.size()];
    const OpOutcome outcome = ExecuteOp(*stack.v, op);
    const TouchedPathSet touched = TouchedPaths(op, outcome);
    auto incremental = inc.Refresh(*stack.v, options, touched);
    ASSERT_TRUE(incremental.ok()) << kind << " step " << step;
    EXPECT_EQ(incremental.value(), OracleFold(*stack.v, options))
        << kind << " diverged at step " << step << " after "
        << op.ToString() << " -> " << ErrnoName(outcome.error);
  }
  // The run must have exercised the incremental path, not fallen back to
  // full recomputes (the initial build is the one expected recompute;
  // a buggy file system claiming success for a degenerate rename would
  // add more).
  EXPECT_EQ(inc.incremental_refreshes(), static_cast<std::uint64_t>(steps));
  EXPECT_LE(inc.full_recomputes(), 2u);
}

TEST(IncrementalDifferential, Ext2MatchesFullAfterEveryStep) {
  RunDifferential("ext2", 11, 250);
}

TEST(IncrementalDifferential, Verifs1MatchesFullAfterEveryStep) {
  RunDifferential("verifs1", 13, 250);
}

TEST(IncrementalDifferential, Verifs2MatchesFullAfterEveryStep) {
  RunDifferential("verifs2", 17, 250);
}

TEST(IncrementalDifferential, FoldIsCanonicalAcrossFileSystems) {
  // The same operation sequence applied to three different on-disk
  // formats must yield the same fold after every step — the property the
  // n-way engine's majority vote rests on.
  Stack e2 = MakeStack("ext2");
  Stack xf = MakeStack("xfs");
  Stack v2 = MakeStack("verifs2");
  std::vector<Stack*> stacks = {&e2, &xf, &v2};

  // Intersection of features (all three support the full set, but keep
  // the test honest if that ever changes).
  std::vector<fs::FsFeature> common = FeaturesOf(*e2.filesystem);
  for (Stack* stack : {&xf, &v2}) {
    std::erase_if(common, [&](fs::FsFeature f) {
      return !stack->filesystem->Supports(f);
    });
  }
  const std::vector<Operation> actions =
      ParameterPool::Default().EnumerateAll(common);

  AbstractionOptions options;
  std::vector<IncrementalAbstraction> inc(stacks.size());
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    ASSERT_TRUE(inc[i].FullRecompute(*stacks[i]->v, options).ok());
  }

  std::mt19937 rng(23);
  for (int step = 0; step < 120; ++step) {
    const Operation& op = actions[rng() % actions.size()];
    std::vector<Md5Digest> folds;
    for (std::size_t i = 0; i < stacks.size(); ++i) {
      const OpOutcome outcome = ExecuteOp(*stacks[i]->v, op);
      auto fold =
          inc[i].Refresh(*stacks[i]->v, options, TouchedPaths(op, outcome));
      ASSERT_TRUE(fold.ok());
      folds.push_back(fold.value());
    }
    EXPECT_EQ(folds[0], folds[1]) << "ext2 vs xfs at step " << step
                                  << " after " << op.ToString();
    EXPECT_EQ(folds[0], folds[2]) << "ext2 vs verifs2 at step " << step
                                  << " after " << op.ToString();
  }
}

TEST(IncrementalDifferential, RenameRelabelsSubtreeWithoutRehashingIt) {
  Stack stack = MakeStack("verifs2");
  ASSERT_TRUE(stack.v->Mkdir("/d0", 0755).ok());
  ASSERT_TRUE(stack.v->Mkdir("/d0/sub", 0755).ok());
  for (const char* path : {"/d0/a", "/d0/b", "/d0/sub/c"}) {
    Write(*stack.v, path, std::string(2048, 'x'));
  }

  AbstractionOptions options;
  IncrementalAbstraction inc;
  ASSERT_TRUE(inc.FullRecompute(*stack.v, options).ok());
  const std::uint64_t rehashed_before = inc.nodes_rehashed();

  const Operation op{.kind = OpKind::kRename, .path = "/d0", .path2 = "/d1"};
  const OpOutcome outcome = ExecuteOp(*stack.v, op);
  ASSERT_EQ(outcome.error, Errno::kOk);
  auto fold = inc.Refresh(*stack.v, options, TouchedPaths(op, outcome));
  ASSERT_TRUE(fold.ok());

  // The cache re-keyed the subtree; only the rename's own dirty paths
  // (the new name; the parents coincide with "/" here) were re-stat'ed —
  // the three file nodes moved over without their data being re-read.
  EXPECT_EQ(fold.value(), OracleFold(*stack.v, options));
  EXPECT_TRUE(inc.nodes().contains("/d1/sub/c"));
  EXPECT_FALSE(inc.nodes().contains("/d0"));
  EXPECT_LE(inc.nodes_rehashed() - rehashed_before, 2u);
}

TEST(IncrementalDifferential, HardLinkAliasesPropagateContentChanges) {
  Stack stack = MakeStack("ext2");
  Write(*stack.v, "/f0", "original");
  ASSERT_TRUE(stack.v->Link("/f0", "/alias").ok());

  AbstractionOptions options;
  IncrementalAbstraction inc;
  ASSERT_TRUE(inc.FullRecompute(*stack.v, options).ok());

  // Writing through one name changes the shared inode: the cached digest
  // for /alias is stale too, even though no operation named it.
  const Operation op{.kind = OpKind::kWriteFile,
                     .path = "/f0",
                     .size = 64,
                     .fill = 0x5a};
  const OpOutcome outcome = ExecuteOp(*stack.v, op);
  ASSERT_EQ(outcome.error, Errno::kOk);
  auto fold = inc.Refresh(*stack.v, options, TouchedPaths(op, outcome));
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(fold.value(), OracleFold(*stack.v, options));
  EXPECT_EQ(inc.nodes().at("/f0").digest, inc.nodes().at("/alias").digest);
}

TEST(IncrementalDifferential, FailedOpsVerifyCheaplyWithoutInvalidation) {
  Stack stack = MakeStack("verifs2");
  Write(*stack.v, "/f0", "x");
  AbstractionOptions options;
  IncrementalAbstraction inc;
  ASSERT_TRUE(inc.FullRecompute(*stack.v, options).ok());
  const Md5Digest before = OracleFold(*stack.v, options);

  // unlink of a missing path fails; the refresh re-verifies the target
  // (finding nothing) and must neither change the digest nor fall back
  // to a full recompute.
  const Operation op{.kind = OpKind::kUnlink, .path = "/missing"};
  const OpOutcome outcome = ExecuteOp(*stack.v, op);
  ASSERT_EQ(outcome.error, Errno::kENOENT);
  auto fold = inc.Refresh(*stack.v, options, TouchedPaths(op, outcome));
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(fold.value(), before);
  EXPECT_EQ(inc.full_recomputes(), 1u);
}

TEST(IncrementalDifferential, EpochRestoreRollsTheCacheBack) {
  Stack stack = MakeStack("verifs2");
  Write(*stack.v, "/keep", "stable");
  AbstractionOptions options;
  IncrementalAbstraction inc;
  auto d0 = inc.FullRecompute(*stack.v, options);
  ASSERT_TRUE(d0.ok());
  inc.SaveEpoch(7);

  const Operation op{.kind = OpKind::kCreateFile, .path = "/tmp0"};
  const OpOutcome outcome = ExecuteOp(*stack.v, op);
  ASSERT_EQ(outcome.error, Errno::kOk);
  auto d1 = inc.Refresh(*stack.v, options, TouchedPaths(op, outcome));
  ASSERT_TRUE(d1.ok());
  EXPECT_NE(d1.value(), d0.value());

  // Undo the mutation so the logical tree equals the epoch's, then roll
  // the cache back: the fold must equal the digest at save time without
  // touching the file system (Current() answers from memory).
  ASSERT_TRUE(stack.v->Unlink("/tmp0").ok());
  EXPECT_TRUE(inc.RestoreEpoch(7));
  auto restored = inc.Current(*stack.v, options);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), d0.value());
  EXPECT_EQ(restored.value(), OracleFold(*stack.v, options));

  // Restoring an unknown epoch degrades to a full recompute, never to a
  // stale digest.
  const std::uint64_t recomputes = inc.full_recomputes();
  EXPECT_FALSE(inc.RestoreEpoch(999));
  EXPECT_FALSE(inc.valid());
  auto recovered = inc.Current(*stack.v, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), d0.value());
  EXPECT_EQ(inc.full_recomputes(), recomputes + 1);
}

TEST(IncrementalDifferential, ParanoidModeCatchesAndRepairsStaleCaches) {
  Stack stack = MakeStack("verifs2");
  Write(*stack.v, "/f0", "v1");
  AbstractionOptions options;
  options.verify_every_n = 1;
  IncrementalAbstraction inc;
  ASSERT_TRUE(inc.FullRecompute(*stack.v, options).ok());

  // Mutate behind the cache's back (an empty touched set models a
  // dirty-derivation bug), then refresh: the cross-check must flag the
  // stale path, return the CORRECT digest, and repair the cache.
  Write(*stack.v, "/f0", "v2");
  auto fold = inc.Refresh(*stack.v, options, TouchedPathSet{});
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(fold.value(), OracleFold(*stack.v, options));
  ASSERT_TRUE(inc.divergence().has_value());
  EXPECT_NE(inc.divergence()->find("/f0"), std::string::npos)
      << *inc.divergence();
  EXPECT_NE(inc.divergence()->find("stale node digest"), std::string::npos);

  // Repaired: the next (honest) refresh is clean.
  const Operation op{.kind = OpKind::kCreateFile, .path = "/f1"};
  const OpOutcome outcome = ExecuteOp(*stack.v, op);
  auto next = inc.Refresh(*stack.v, options, TouchedPaths(op, outcome));
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(inc.divergence().has_value());
}

// ---------------------------------------------------------------------------
// Engine level

struct EnginePair {
  std::unique_ptr<FsUnderTest> a;
  std::unique_ptr<FsUnderTest> b;
  std::unique_ptr<SyscallEngine> engine;
};

EnginePair MakePair(EngineOptions options) {
  EnginePair pair;
  FsUnderTestConfig ca;
  ca.kind = FsKind::kVerifs1;
  ca.strategy = StateStrategy::kIoctl;
  FsUnderTestConfig cb;
  cb.kind = FsKind::kVerifs2;
  cb.strategy = StateStrategy::kIoctl;
  auto a = FsUnderTest::Create(ca, nullptr);
  auto b = FsUnderTest::Create(cb, nullptr);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  pair.a = std::move(a).value();
  pair.b = std::move(b).value();
  pair.engine = std::make_unique<SyscallEngine>(
      std::vector<FsUnderTest*>{pair.a.get(), pair.b.get()}, options);
  return pair;
}

TEST(IncrementalEngine, SameSeedExplorationMatchesFullModeExactly) {
  // The fold digest differs in VALUE from the legacy rolling digest, but
  // its equivalence classes must be identical — so a DFS that dedupes on
  // it makes exactly the same decisions: same operation count, same
  // unique states, same revisits, same backtracks.
  mc::ExploreStats stats[2];
  EngineCounters counters[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineOptions options;
    options.pool = ParameterPool::Tiny();
    options.abstraction.incremental = mode == 1;
    options.abstraction.verify_every_n = mode == 1 ? 7 : 0;
    EnginePair pair = MakePair(options);
    EXPECT_EQ(pair.engine->incremental_abstraction(), mode == 1);

    mc::ExplorerOptions explore;
    explore.mode = mc::SearchMode::kDfs;
    explore.max_operations = 3000;
    explore.max_depth = 4;
    explore.seed = 5;
    mc::Explorer explorer(*pair.engine, explore);
    stats[mode] = explorer.Run();
    counters[mode] = pair.engine->counters();
    ASSERT_FALSE(stats[mode].violation_found)
        << stats[mode].violation_report;
  }
  EXPECT_EQ(stats[0].operations, stats[1].operations);
  EXPECT_EQ(stats[0].unique_states, stats[1].unique_states);
  EXPECT_EQ(stats[0].revisits, stats[1].revisits);
  EXPECT_EQ(stats[0].backtracks, stats[1].backtracks);
  EXPECT_EQ(counters[0].ops_executed, counters[1].ops_executed);
  // And the incremental run must actually have been incremental: a few
  // full walks (initial build + paranoid oracles), not one per step.
  EXPECT_GT(counters[1].abstraction_incremental_refreshes, 100u);
  EXPECT_LT(counters[1].abstraction_full_recomputes,
            counters[0].abstraction_full_recomputes / 10);
}

TEST(IncrementalEngine, CheckpointRestoreKeepsTheCacheCoherent) {
  EngineOptions options;
  options.abstraction.incremental = true;
  EnginePair pair = MakePair(options);
  ASSERT_TRUE(pair.engine->incremental_abstraction());

  const Md5Digest h0 = pair.engine->AbstractHash();
  auto snap = pair.engine->SaveConcrete();
  ASSERT_TRUE(snap.ok());

  std::size_t create = pair.engine->ActionCount();
  for (std::size_t i = 0; i < pair.engine->ActionCount(); ++i) {
    if (pair.engine->ActionName(i).rfind("create_file(", 0) == 0) {
      create = i;
      break;
    }
  }
  ASSERT_LT(create, pair.engine->ActionCount());
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  EXPECT_FALSE(pair.engine->violation_detected())
      << pair.engine->violation_report();
  EXPECT_NE(pair.engine->AbstractHash(), h0);

  // Restore: the epoch rolls the caches back, and the digest after the
  // round trip must come from the cache (no new full recomputes).
  ASSERT_TRUE(pair.engine->RestoreConcrete(snap.value()).ok());
  const std::uint64_t recomputes_before =
      pair.engine->counters().abstraction_full_recomputes;
  EXPECT_EQ(pair.engine->AbstractHash(), h0);
  EXPECT_EQ(pair.engine->counters().abstraction_full_recomputes,
            recomputes_before);

  // Saving again under a restored state and discarding must not disturb
  // the current digest.
  auto snap2 = pair.engine->SaveConcrete();
  ASSERT_TRUE(snap2.ok());
  ASSERT_TRUE(pair.engine->DiscardConcrete(snap2.value()).ok());
  ASSERT_TRUE(pair.engine->DiscardConcrete(snap.value()).ok());
  EXPECT_EQ(pair.engine->AbstractHash(), h0);
}

TEST(IncrementalEngine, MountOncePairRefusesTheCache) {
  // kMountOnce restores are incoherent by design (§3.2): the engine must
  // silently fall back to full walks so the corruption stays observable.
  EngineOptions options;
  options.abstraction.incremental = true;
  EnginePair pair;
  FsUnderTestConfig ca;
  ca.kind = FsKind::kExt2;
  ca.strategy = StateStrategy::kMountOnce;
  FsUnderTestConfig cb;
  cb.kind = FsKind::kExt4;
  cb.strategy = StateStrategy::kRemountPerOp;
  auto a = FsUnderTest::Create(ca, nullptr);
  auto b = FsUnderTest::Create(cb, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SyscallEngine engine({a.value().get(), b.value().get()}, options);
  EXPECT_FALSE(engine.incremental_abstraction());
}

TEST(IncrementalEngine, NWayPanelAgreesAcrossHeterogeneousFormats) {
  // Three different implementations under one n-way engine with the
  // incremental abstraction on: every ApplyAction compares the three
  // folds — any canonicalization slip shows up as a state-divergence
  // violation here.
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> raw;
  for (auto [kind, strategy] :
       {std::pair{FsKind::kExt2, StateStrategy::kRemountPerOp},
        std::pair{FsKind::kVerifs2, StateStrategy::kIoctl},
        std::pair{FsKind::kXfs, StateStrategy::kRemountPerOp}}) {
    FsUnderTestConfig config;
    config.kind = kind;
    config.strategy = strategy;
    auto fut = FsUnderTest::Create(config, nullptr);
    ASSERT_TRUE(fut.ok());
    owned.push_back(std::move(fut).value());
    raw.push_back(owned.back().get());
  }
  EngineOptions options;
  options.pool = ParameterPool::Tiny();
  options.abstraction.incremental = true;
  options.abstraction.verify_every_n = 5;
  SyscallEngine engine(raw, options);
  ASSERT_TRUE(engine.incremental_abstraction());

  for (std::size_t i = 0; i < engine.ActionCount(); ++i) {
    ASSERT_TRUE(engine.ApplyAction(i).ok());
    EXPECT_FALSE(engine.violation_detected())
        << engine.ActionName(i) << ": " << engine.violation_report();
  }
}

}  // namespace
}  // namespace mcfs::core
