// A spec-oracle panel (three members) under partial-order reduction
// (DESIGN.md §7.6, §7.10): the N-member engine shares the pair's
// footprints and trace, so a panel's search is reduced like a pair's and
// its violation trail shrinks to a replay-confirmed 1-minimal reproducer.
//
// Runs under `ctest -L por` and `ctest -L spec`.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mc/explorer.h"
#include "mcfs/harness.h"
#include "mcfs/shrink.h"
#include "mcfs/syscall_engine.h"
#include "mcfs/trace.h"

namespace mcfs::mc {
namespace {

TEST(PorPanelTest, OraclePanelRunsUnderPorAndShrinksToAMinimalReproducer) {
  // The spec as oracle (#0), VeriFS2 reporting EPERM for a missing
  // unlink target (#1), and a clean VeriFS2 (#2).
  auto member_config = [](int i) {
    core::FsUnderTestConfig config;
    config.kind = i == 0 ? core::FsKind::kSpec : core::FsKind::kVerifs2;
    config.strategy = core::StateStrategy::kIoctl;
    config.fuse_transport = false;
    if (i == 1) config.bugs.unlink_enoent_as_eperm = true;
    return config;
  };
  for (const bool por : {false, true}) {
    std::vector<std::unique_ptr<core::FsUnderTest>> owned;
    std::vector<core::FsUnderTest*> panel;
    for (int i = 0; i < 3; ++i) {
      auto fut = core::FsUnderTest::Create(member_config(i), nullptr);
      ASSERT_TRUE(fut.ok());
      owned.push_back(std::move(fut).value());
      panel.push_back(owned.back().get());
    }
    core::EngineOptions options;
    options.oracle_index = 0;
    core::SyscallEngine engine(panel, options);

    ExplorerOptions eopts;
    eopts.max_operations = 5'000;
    eopts.max_depth = 4;
    // Seed 5 backtracks ~90 times before it first unlinks a missing
    // file, so the sleep sets have transitions to prune by then; seed 1
    // hits the bug on its first descent, before any backtrack.
    eopts.seed = 5;
    eopts.por = por;
    Explorer explorer(engine, eopts);
    const ExploreStats stats = explorer.Run();

    ASSERT_TRUE(stats.violation_found) << "por=" << por;
    EXPECT_EQ(stats.por_active, por);
    if (por) {
      EXPECT_GT(stats.por_pruned_transitions, 0u);
    }
    // Member 1 is convicted either way; the spec and the clean member
    // are not.
    EXPECT_GT(engine.suspicion_counts()[1], 0u) << "por=" << por;
    EXPECT_GT(engine.oracle_disagreement_counts()[1], 0u) << "por=" << por;
    EXPECT_EQ(engine.suspicion_counts()[0], 0u) << "por=" << por;
    EXPECT_EQ(engine.suspicion_counts()[2], 0u) << "por=" << por;
    EXPECT_NE(stats.violation_report.find("suspects:"), std::string::npos)
        << stats.violation_report;
    if (!por) continue;

    // Shrink the panel's trail on a spec-vs-mutant replay pair.
    auto trail = core::TraceFromTrail(engine, stats.violation_trail);
    ASSERT_TRUE(trail.ok());
    core::McfsConfig replay;
    replay.fs_a = member_config(0);
    replay.fs_b = member_config(1);
    core::ShrinkOptions shrink;
    shrink.replay.checker = engine.options().checker;
    shrink.replay.compare_states = engine.options().compare_states;
    shrink.replay.abstraction = engine.options().abstraction;
    core::TraceMinimizer minimizer(core::MakeMcfsReplayFactory(replay),
                                   shrink);
    core::ShrinkReport report;
    auto minimized = minimizer.Minimize(trail.value(), &report);
    ASSERT_TRUE(minimized.ok()) << report.Summary();
    EXPECT_TRUE(report.replay_confirmed) << report.Summary();
    EXPECT_TRUE(report.one_minimal) << report.Summary();
    // Unlinking a missing file is the whole bug: one operation.
    ASSERT_EQ(minimized.value().size(), 1u) << minimized.value().ToText();
    EXPECT_EQ(minimized.value().records()[0].op.kind, core::OpKind::kUnlink);
  }
}

}  // namespace
}  // namespace mcfs::mc
