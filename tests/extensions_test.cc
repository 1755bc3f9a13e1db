// Tests for the paper's §7 future-work features implemented here:
//   * the VFS-level checkpoint/restore API for kernel file systems
//     (fs::MountStateCapture + StateStrategy::kVfsApi);
//   * N-way checking with majority voting (SyscallEngine panels).
#include <gtest/gtest.h>

#include "fs/ext2/ext2fs.h"
#include "mc/explorer.h"
#include "mcfs/harness.h"
#include "storage/ram_disk.h"

namespace mcfs::core {
namespace {

// ---------------------------------------------------------------------------
// MountStateCapture round trips per file system

class MountStateSuite : public testing::TestWithParam<FsKind> {};

TEST_P(MountStateSuite, ExportImportRoundTrip) {
  FsUnderTestConfig config;
  config.kind = GetParam();
  config.strategy = StateStrategy::kVfsApi;
  auto fut = FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(fut.ok()) << ErrnoName(fut.error());
  FsUnderTest& f = *fut.value();

  // Build some state.
  ASSERT_TRUE(f.BeginOp().ok());
  auto fd = f.vfs().Open("/file", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs().Write(fd.value(), 0, AsBytes("checkpointed")).ok());
  ASSERT_TRUE(f.vfs().Close(fd.value()).ok());
  ASSERT_TRUE(f.vfs().Mkdir("/dir", 0755).ok());

  // Save under the live mount (NO unmount happens with kVfsApi).
  ASSERT_TRUE(f.SaveState(1).ok());
  EXPECT_TRUE(f.inner().IsMounted());

  // Diverge, then roll back.
  ASSERT_TRUE(f.vfs().Unlink("/file").ok());
  ASSERT_TRUE(f.vfs().Rmdir("/dir").ok());
  auto fd2 = f.vfs().Open("/other", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(f.vfs().Close(fd2.value()).ok());

  ASSERT_TRUE(f.RestoreState(1).ok());
  EXPECT_TRUE(f.inner().IsMounted());

  auto rfd = f.vfs().Open("/file", fs::kRdOnly, 0);
  ASSERT_TRUE(rfd.ok());
  auto data = f.vfs().Read(rfd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "checkpointed");
  ASSERT_TRUE(f.vfs().Close(rfd.value()).ok());
  EXPECT_TRUE(f.vfs().Stat("/dir").ok());
  EXPECT_EQ(f.vfs().Stat("/other").error(), Errno::kENOENT);
  ASSERT_TRUE(f.DiscardState(1).ok());
}

TEST_P(MountStateSuite, NonConsumingRestore) {
  FsUnderTestConfig config;
  config.kind = GetParam();
  config.strategy = StateStrategy::kVfsApi;
  auto fut = FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(fut.ok());
  FsUnderTest& f = *fut.value();
  ASSERT_TRUE(f.SaveState(9).ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(f.vfs().Mkdir("/scratch", 0755).ok());
    ASSERT_TRUE(f.RestoreState(9).ok());
    EXPECT_EQ(f.vfs().Stat("/scratch").error(), Errno::kENOENT)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(KernelFileSystems, MountStateSuite,
                         testing::Values(FsKind::kExt2, FsKind::kExt4,
                                         FsKind::kXfs, FsKind::kJffs2),
                         [](const testing::TestParamInfo<FsKind>& info) {
                           return std::string(FsKindName(info.param));
                         });

TEST(VfsApiStrategy, RejectedForVerifs) {
  FsUnderTestConfig config;
  config.kind = FsKind::kVerifs1;
  config.strategy = StateStrategy::kVfsApi;
  auto fut = FsUnderTest::Create(config, nullptr);
  EXPECT_FALSE(fut.ok());  // no block device to snapshot
}

TEST(VfsApiStrategy, CleanExplorationWithoutRemounts) {
  // The future-work payoff: kernel FSes explored coherently with ZERO
  // remounts — what previously required the slow remount-per-op strategy.
  McfsConfig config;
  config.fs_a.kind = FsKind::kExt2;
  config.fs_b.kind = FsKind::kExt4;
  config.fs_a.strategy = StateStrategy::kVfsApi;
  config.fs_b.strategy = StateStrategy::kVfsApi;
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 1500;
  config.explore.max_depth = 6;
  config.explore.seed = 8;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.Summary();
  EXPECT_EQ(report.counters.corruption_events, 0u);
  EXPECT_EQ(report.remounts_a + report.remounts_b, 0u);
}

TEST(VfsApiStrategy, FasterThanRemountPerOp) {
  auto sim_rate = [](StateStrategy strategy) {
    McfsConfig config;
    config.fs_a.kind = FsKind::kExt2;
    config.fs_b.kind = FsKind::kExt4;
    config.fs_a.strategy = strategy;
    config.fs_b.strategy = strategy;
    config.engine.pool = ParameterPool::Tiny();
    config.explore.max_operations = 300;
    config.explore.max_depth = 5;
    auto mcfs = Mcfs::Create(config);
    EXPECT_TRUE(mcfs.ok());
    return mcfs.value()->Run().sim_ops_per_sec;
  };
  EXPECT_GT(sim_rate(StateStrategy::kVfsApi),
            sim_rate(StateStrategy::kRemountPerOp));
}

// ---------------------------------------------------------------------------
// N-way majority voting

struct NWayStack {
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> raw;
};

NWayStack MakeTriple(verifs::VerifsBugs bugs_for_middle) {
  NWayStack stack;
  for (int i = 0; i < 3; ++i) {
    FsUnderTestConfig config;
    config.kind = i == 2 ? FsKind::kVerifs1 : FsKind::kVerifs2;
    config.strategy = StateStrategy::kIoctl;
    if (i == 1) config.bugs = bugs_for_middle;
    auto fut = FsUnderTest::Create(config, nullptr);
    EXPECT_TRUE(fut.ok());
    stack.owned.push_back(std::move(fut).value());
    stack.raw.push_back(stack.owned.back().get());
  }
  return stack;
}

TEST(NWayVote, UnanimousWhenAllAgree) {
  std::vector<OpOutcome> outcomes(3);
  for (auto& outcome : outcomes) outcome.error = Errno::kENOENT;
  const VoteResult vote = SyscallEngine::Vote(
      Operation{.kind = OpKind::kStat, .path = "/x"}, outcomes, {});
  EXPECT_TRUE(vote.unanimous);
  EXPECT_TRUE(vote.minority.empty());
}

TEST(NWayVote, MinorityIsIdentified) {
  std::vector<OpOutcome> outcomes(5);
  for (auto& outcome : outcomes) outcome.error = Errno::kOk;
  outcomes[3].error = Errno::kENOSPC;  // the odd one out
  const VoteResult vote = SyscallEngine::Vote(
      Operation{.kind = OpKind::kMkdir, .path = "/d"}, outcomes, {});
  EXPECT_FALSE(vote.unanimous);
  ASSERT_EQ(vote.minority.size(), 1u);
  EXPECT_EQ(vote.minority[0], 3u);
  EXPECT_NE(vote.detail.find("ENOSPC"), std::string::npos);
}

TEST(NWayVote, LargestGroupWinsWithThreeGroups) {
  std::vector<OpOutcome> outcomes(4);
  outcomes[0].error = Errno::kOk;
  outcomes[1].error = Errno::kOk;
  outcomes[2].error = Errno::kENOENT;
  outcomes[3].error = Errno::kEACCES;
  const VoteResult vote = SyscallEngine::Vote(
      Operation{.kind = OpKind::kUnlink, .path = "/f"}, outcomes, {});
  EXPECT_FALSE(vote.unanimous);
  EXPECT_EQ(vote.minority.size(), 2u);
  EXPECT_EQ(vote.group_of[0], 0);
  EXPECT_EQ(vote.group_of[1], 0);
}

TEST(NWayVote, TieForLargestGroupNamesNoSuspects) {
  // 2 vs 2 with no oracle: neither side outnumbers the other, so nobody
  // is a suspect — the panel only reports that its members disagree.
  std::vector<OpOutcome> outcomes(4);
  outcomes[0].error = Errno::kOk;
  outcomes[1].error = Errno::kENOENT;
  outcomes[2].error = Errno::kOk;
  outcomes[3].error = Errno::kENOENT;
  const VoteResult vote = SyscallEngine::Vote(
      Operation{.kind = OpKind::kUnlink, .path = "/f"}, outcomes, {});
  EXPECT_FALSE(vote.unanimous);
  EXPECT_TRUE(vote.minority.empty());
  EXPECT_FALSE(vote.detail.empty());
}

TEST(NWayEngine, CleanTripleExploresWithoutViolation) {
  NWayStack stack = MakeTriple(verifs::VerifsBugs::None());
  EngineOptions options;
  options.pool = ParameterPool::Tiny();
  SyscallEngine engine(stack.raw, options);

  mc::ExplorerOptions eopts;
  eopts.max_operations = 300;
  eopts.max_depth = 4;
  mc::Explorer explorer(engine, eopts);
  mc::ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.violation_found) << stats.violation_report;
  for (std::uint64_t suspicion : engine.suspicion_counts()) {
    EXPECT_EQ(suspicion, 0u);
  }
}

TEST(NWayEngine, MajorityVoteConvictsTheBuggyFileSystem) {
  verifs::VerifsBugs bugs;
  bugs.size_update_only_on_capacity_growth = true;
  NWayStack stack = MakeTriple(bugs);  // middle FS (#1) is buggy
  EngineOptions options;
  options.pool = ParameterPool::Default();
  SyscallEngine engine(stack.raw, options);

  mc::ExplorerOptions eopts;
  eopts.max_operations = 100'000;
  eopts.max_depth = 8;
  eopts.seed = 3;
  mc::Explorer explorer(engine, eopts);
  mc::ExploreStats stats = explorer.Run();
  ASSERT_TRUE(stats.violation_found);
  // The vote names the buggy side, not just "they disagree".
  EXPECT_NE(stats.violation_report.find(engine.fs_name(1)),
            std::string::npos)
      << stats.violation_report;
  EXPECT_GT(engine.suspicion_counts()[1], 0u);
  EXPECT_EQ(engine.suspicion_counts()[0], 0u);
  EXPECT_EQ(engine.suspicion_counts()[2], 0u);
}

TEST(NWayEngine, MixedStrategiesAndKindsExploreCleanly) {
  // A heterogeneous panel: two kernel file systems under the §7 VFS-level
  // API plus a VeriFS under its native ioctls — every strategy coherent,
  // no remounts anywhere.
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> panel;
  auto add = [&](FsKind kind, StateStrategy strategy) {
    FsUnderTestConfig config;
    config.kind = kind;
    config.strategy = strategy;
    auto fut = FsUnderTest::Create(config, nullptr);
    ASSERT_TRUE(fut.ok());
    owned.push_back(std::move(fut).value());
    panel.push_back(owned.back().get());
  };
  add(FsKind::kExt2, StateStrategy::kVfsApi);
  add(FsKind::kExt4, StateStrategy::kVfsApi);
  add(FsKind::kVerifs2, StateStrategy::kIoctl);

  EngineOptions options;
  options.pool = ParameterPool::Tiny();
  SyscallEngine engine(panel, options);
  mc::ExplorerOptions eopts;
  eopts.max_operations = 400;
  eopts.max_depth = 4;
  mc::Explorer explorer(engine, eopts);
  mc::ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.violation_found) << stats.violation_report;
  for (FsUnderTest* fut : panel) {
    EXPECT_EQ(fut->remounts(), 0u) << fut->name();
  }
}

TEST(NWayEngine, ActionSetUsesFeatureIntersection) {
  NWayStack stack = MakeTriple(verifs::VerifsBugs::None());
  // The triple includes VeriFS1, which lacks rename: no rename actions.
  EngineOptions options;
  SyscallEngine engine(stack.raw, options);
  for (std::size_t i = 0; i < engine.ActionCount(); ++i) {
    EXPECT_EQ(engine.ActionName(i).find("rename"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Resumable exploration (§7: resume after an interruption)

TEST(ResumeTest, VisitedTableSerializationRoundTrip) {
  mc::VisitedTable table(16);
  for (std::uint64_t i = 0; i < 100; ++i) {
    Md5 md5;
    md5.UpdateU64(i);
    table.Insert(md5.Final());
  }
  const Bytes image = table.Serialize();
  auto restored = mc::VisitedTable::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    Md5 md5;
    md5.UpdateU64(i);
    EXPECT_TRUE(restored.value().Contains(md5.Final())) << i;
  }
}

TEST(ResumeTest, DeserializeRejectsGarbage) {
  const Bytes garbage = {1, 2, 3};
  EXPECT_FALSE(mc::VisitedTable::Deserialize(garbage).ok());
}

TEST(ResumeTest, ResumedRunSkipsAlreadyVisitedStates) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Tiny();
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());

  // Phase 1: a short run, then checkpoint the visited set (the paper's
  // "interruption" — e.g. a kernel crash — happens here).
  mc::ExplorerOptions phase1;
  phase1.max_operations = 40;
  phase1.max_depth = 4;
  phase1.seed = 2;
  mc::Explorer explorer1(mcfs.value()->engine(), phase1);
  const mc::ExploreStats stats1 = explorer1.Run();
  auto exported = explorer1.ExportCheckpoint();
  ASSERT_TRUE(exported.ok());
  const Bytes checkpoint = std::move(exported).value();
  ASSERT_GT(stats1.unique_states, 0u);

  // Phase 2: resume with the checkpoint. Previously visited states are
  // known, so they are not re-counted as unique.
  mc::ExplorerOptions phase2;
  phase2.max_operations = 100'000;
  phase2.max_depth = 4;
  phase2.seed = 2;
  phase2.resume_visited = &checkpoint;
  mc::Explorer explorer2(mcfs.value()->engine(), phase2);
  EXPECT_EQ(explorer2.visited().size(), stats1.unique_states);
  const mc::ExploreStats stats2 = explorer2.Run();

  // A fresh full run covers the same total state count.
  auto fresh = Mcfs::Create(config);
  ASSERT_TRUE(fresh.ok());
  mc::ExplorerOptions full = phase2;
  full.resume_visited = nullptr;
  mc::Explorer explorer3(fresh.value()->engine(), full);
  const mc::ExploreStats stats3 = explorer3.Run();
  EXPECT_EQ(stats1.unique_states + stats2.unique_states,
            stats3.unique_states);
}

// ---------------------------------------------------------------------------
// Coverage tracking (§7: track coverage while model-checking)

TEST(CoverageTest, RecordsDistinctOutcomes) {
  SyscallCoverage coverage;
  coverage.Record(OpKind::kMkdir, Errno::kOk);
  coverage.Record(OpKind::kMkdir, Errno::kOk);
  coverage.Record(OpKind::kMkdir, Errno::kEEXIST);
  coverage.Record(OpKind::kUnlink, Errno::kENOENT);
  EXPECT_EQ(coverage.distinct_outcomes(), 3u);
  EXPECT_EQ(coverage.distinct_ops(), 2u);
  EXPECT_EQ(coverage.count(OpKind::kMkdir, Errno::kOk), 2u);
  EXPECT_TRUE(coverage.covered(OpKind::kUnlink, Errno::kENOENT));
  EXPECT_FALSE(coverage.covered(OpKind::kUnlink, Errno::kOk));
  const std::string report = coverage.Report();
  EXPECT_NE(report.find("mkdir: OK=2 EEXIST=1"), std::string::npos);
}

TEST(CoverageTest, MergeAccumulates) {
  SyscallCoverage a, b;
  a.Record(OpKind::kStat, Errno::kOk);
  b.Record(OpKind::kStat, Errno::kOk);
  b.Record(OpKind::kStat, Errno::kENOENT);
  a.Merge(b);
  EXPECT_EQ(a.count(OpKind::kStat, Errno::kOk), 2u);
  EXPECT_EQ(a.distinct_outcomes(), 2u);
}

TEST(CoverageTest, ExplorationExercisesErrorPaths) {
  // Invalid sequences are generated on purpose because error paths are
  // "where bugs often lurk" (paper §2): after exploration, both the
  // success and the error outcome of key operations must be covered.
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Tiny();
  config.explore.max_operations = 400;
  config.explore.max_depth = 4;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  (void)mcfs.value()->Run();

  const SyscallCoverage& coverage = mcfs.value()->engine().coverage();
  EXPECT_TRUE(coverage.covered(OpKind::kMkdir, Errno::kOk));
  EXPECT_TRUE(coverage.covered(OpKind::kMkdir, Errno::kEEXIST));
  EXPECT_TRUE(coverage.covered(OpKind::kUnlink, Errno::kENOENT));
  EXPECT_TRUE(coverage.covered(OpKind::kRmdir, Errno::kENOTDIR) ||
              coverage.covered(OpKind::kRmdir, Errno::kENOENT));
  EXPECT_GT(coverage.distinct_outcomes(), 8u);
}

}  // namespace
}  // namespace mcfs::core
