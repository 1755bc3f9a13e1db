// N-way majority voting (paper §7 future work): run three file systems
// concurrently; when one misbehaves, the vote names the culprit rather
// than just reporting "two file systems disagree".
//
// With --with-spec the executable POSIX specification joins the panel as
// a fourth member and the vote becomes absolute: the spec's group is the
// reference regardless of its size, suspicion never accrues against the
// spec, and an outvoted spec is reported as "spec says majority is
// wrong" instead of the oracle being blamed.
//
//   ./nway_vote [seed] [--with-spec]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mc/explorer.h"
#include "mcfs/harness.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  using namespace mcfs::core;

  std::uint64_t seed = 3;
  bool with_spec = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--with-spec") == 0) {
      with_spec = true;
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  // Panel: clean VeriFS2, a buggy VeriFS2 (historical bug #4 seeded),
  // and clean VeriFS1 — majority = the two clean implementations. With
  // --with-spec the executable spec joins as the absolute oracle.
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> panel;
  const int members = with_spec ? 4 : 3;
  for (int i = 0; i < members; ++i) {
    FsUnderTestConfig config;
    config.kind = i == 2   ? FsKind::kVerifs1
                  : i == 3 ? FsKind::kSpec
                           : FsKind::kVerifs2;
    config.strategy = StateStrategy::kIoctl;
    if (i == 3) config.fuse_transport = false;
    if (i == 1) config.bugs.size_update_only_on_capacity_growth = true;
    auto fut = FsUnderTest::Create(config, nullptr);
    if (!fut.ok()) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    owned.push_back(std::move(fut).value());
    panel.push_back(owned.back().get());
  }

  std::printf("panel: %s (clean), %s (bug #4 seeded), %s (clean)%s\n",
              panel[0]->name().c_str(), panel[1]->name().c_str(),
              panel[2]->name().c_str(),
              with_spec ? ", specfs (oracle)" : "");

  EngineOptions options;
  options.pool = ParameterPool::Default();
  if (with_spec) options.oracle_index = 3;
  SyscallEngine engine(panel, options);

  mc::ExplorerOptions eopts;
  eopts.max_operations = 200'000;
  eopts.max_depth = 8;
  eopts.seed = seed;
  mc::Explorer explorer(engine, eopts);
  mc::ExploreStats stats = explorer.Run();

  std::printf("\nexplored %llu operations, %llu unique states\n",
              static_cast<unsigned long long>(stats.operations),
              static_cast<unsigned long long>(stats.unique_states));
  if (!stats.violation_found) {
    std::printf("no deviation found (unexpected with a seeded bug)\n");
    return 1;
  }
  std::printf("\nVERDICT: %s\n", stats.violation_report.c_str());
  std::printf("\nsuspicion tally (times outvoted):\n");
  for (std::size_t i = 0; i < engine.fs_count(); ++i) {
    std::printf("  #%zu %-10s %llu\n", i, engine.fs_name(i).c_str(),
                static_cast<unsigned long long>(
                    engine.suspicion_counts()[i]));
  }
  if (with_spec) {
    std::printf("\noracle disagreements (times each member contradicted "
                "the spec):\n");
    for (std::size_t i = 0; i < engine.fs_count(); ++i) {
      std::printf("  #%zu %-10s %llu\n", i, engine.fs_name(i).c_str(),
                  static_cast<unsigned long long>(
                      engine.oracle_disagreement_counts()[i]));
    }
    McfsReport report;
    report.stats = stats;
    AttachOracleTally(engine, &report);
    std::printf("\nsummary: %s\n", report.Summary().c_str());
  }
  std::printf("\ntrail:\n");
  for (const auto& step : stats.violation_trail) {
    std::printf("  %s\n", step.c_str());
  }
  return 0;
}
